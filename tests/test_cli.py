import json

import pytest

from atrellis.cli import main

SEED = ["--seed", "3"]


def run_pipeline(tmp_path, attacks=(), duration="1200", epochs="20"):
    """simulate -> profile -> train on a clean trace, then detect -> eval
    on a second trace that carries the injected attacks."""
    clean = str(tmp_path / "clean.jsonl")
    trace = str(tmp_path / "trace.jsonl")
    profile = str(tmp_path / "profile.json")
    ensemble = str(tmp_path / "ensemble.json")
    verdicts = str(tmp_path / "verdicts.jsonl")
    metrics = str(tmp_path / "metrics.json")

    assert main(["simulate", "--fixture", "camera", "--duration", duration,
                 "-o", clean] + SEED) == 0
    args = ["simulate", "--fixture", "camera", "--duration", duration,
            "-o", trace] + SEED
    for atk in attacks:
        args += ["--attack", json.dumps(atk)]
    assert main(args) == 0
    assert main(["profile", clean, "--h-s", "0.5", "-o", profile]) == 0
    assert main(["train", clean, profile, "--epochs", epochs,
                 "-o", ensemble] + SEED) == 0
    assert main(["detect", trace, ensemble, "-o", verdicts]) == 0
    assert main(["eval", trace, verdicts, "-o", metrics]) == 0
    return trace, profile, ensemble, verdicts, metrics


class TestSimulate:
    def test_writes_trace_and_manifest(self, tmp_path):
        out = str(tmp_path / "t.jsonl")
        assert main(["simulate", "--fixture", "hub", "--duration", "300",
                     "-o", out] + SEED) == 0
        manifest = json.loads(open(out + ".manifest.json").read())
        n_lines = sum(1 for _ in open(out))
        assert manifest["label_counts"]["benign"] == n_lines
        assert manifest["seed"] == 3

    def test_unknown_fixture_exits_2(self, tmp_path, capsys):
        rc = main(["simulate", "--fixture", "toaster", "-o",
                   str(tmp_path / "t.jsonl")])
        assert rc == 2
        assert "unknown fixture" in capsys.readouterr().err

    def test_unwritable_output_exits_1(self, tmp_path):
        rc = main(["simulate", "--fixture", "hub", "--duration", "60",
                   "-o", str(tmp_path / "no" / "dir" / "t.jsonl")])
        assert rc == 1

    def test_attack_injection(self, tmp_path):
        out = str(tmp_path / "t.jsonl")
        atk = {"kind": "PortScan", "start": 30, "rate": 5,
               "target": {"n_ports": 20}}
        assert main(["simulate", "--fixture", "hub", "--duration", "300",
                     "--attack", json.dumps(atk), "-o", out] + SEED) == 0
        manifest = json.loads(open(out + ".manifest.json").read())
        assert manifest["label_counts"]["attack:PortScan"] == 20


class TestProfile:
    def test_camera_reports_keys(self, tmp_path, capsys):
        trace = str(tmp_path / "t.jsonl")
        main(["simulate", "--fixture", "camera", "--duration", "1200",
              "-o", trace] + SEED)
        profile = str(tmp_path / "p.json")
        assert main(["profile", trace, "-o", profile]) == 0
        doc = json.loads(open(profile).read())
        assert len(doc["keys"]) >= 3
        assert "activity keys" in capsys.readouterr().out

    def test_empty_trace_exits_1(self, tmp_path):
        trace = tmp_path / "empty.jsonl"
        trace.write_text("")
        rc = main(["profile", str(trace), "-o", str(tmp_path / "p.json")])
        assert rc == 1


class TestPipeline:
    def test_full_pipeline(self, tmp_path):
        attacks = [
            {"kind": "PortScan", "start": 200, "rate": 5,
             "target": {"n_ports": 30}},
            {"kind": "HttpMasqCnc", "start": 300, "rate": 0.05,
             "duration": 400,
             "target": {"domain": "api.cam-vendor.com",
                        "ip": "203.0.113.11"}},
        ]
        *_, metrics = run_pipeline(tmp_path, attacks)
        doc = json.loads(open(metrics).read())
        assert doc["n_attack"] == 50
        assert set(doc["per_attack"]) == {"PortScan", "HttpMasqCnc"}
        assert doc["per_attack"]["PortScan"]["tpr"] == 1.0

    def test_idempotent_artifacts(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.mkdir(); b.mkdir()
        files_a = run_pipeline(a, duration="600", epochs="10")
        files_b = run_pipeline(b, duration="600", epochs="10")
        for fa, fb in zip(files_a, files_b):
            assert open(fa, "rb").read() == open(fb, "rb").read()

    def test_dump_features(self, tmp_path):
        trace, profile, ensemble, _, _ = run_pipeline(tmp_path,
                                                      duration="600",
                                                      epochs="10")
        dump = str(tmp_path / "features.jsonl")
        assert main(["detect", trace, ensemble, "-o",
                     str(tmp_path / "v2.jsonl"), "--dump-features",
                     dump]) == 0
        rows = [json.loads(line) for line in open(dump)]
        assert rows and all(len(r["values"]) == 20 for r in rows)
        assert all(0.0 <= v <= 1.0 for r in rows for v in r["values"])


class TestEval:
    def test_unlabeled_trace_exits_2(self, tmp_path):
        trace, profile, ensemble, verdicts, _ = run_pipeline(
            tmp_path, duration="600", epochs="10")
        # strip labels
        stripped = tmp_path / "unlabeled.jsonl"
        with open(trace) as src, open(stripped, "w") as dst:
            for line in src:
                obj = json.loads(line)
                obj.pop("label", None)
                dst.write(json.dumps(obj) + "\n")
        rc = main(["eval", str(stripped), verdicts,
                   "-o", str(tmp_path / "m.json")])
        assert rc == 2

    def test_schema_mismatch_exits_1(self, tmp_path, capsys):
        trace, profile, ensemble, verdicts, _ = run_pipeline(
            tmp_path, duration="600", epochs="10")
        doc = json.loads(open(ensemble).read())
        doc["schema_version"] = "9.9"
        open(ensemble, "w").write(json.dumps(doc))
        rc = main(["detect", trace, ensemble,
                   "-o", str(tmp_path / "v.jsonl")])
        assert rc == 1
        assert "schema_version" in capsys.readouterr().err


class TestCorruptEnsemble:
    @pytest.mark.parametrize("corrupt, names", [
        (lambda w: w["w1"][0][0].__setitem__(0, float("nan")), "w1"),
        (lambda w: [row.pop() for row in w["w2"]], "w2"),
    ])
    def test_bad_weights_exit_1_without_traceback(self, tmp_path, capsys,
                                                  corrupt, names):
        trace, _, ensemble, _, _ = run_pipeline(tmp_path, duration="600",
                                                epochs="10")
        doc = json.loads(open(ensemble).read())
        corrupt(doc["submodels"][0]["model"]["weights"])
        open(ensemble, "w").write(json.dumps(doc))
        capsys.readouterr()
        rc = main(["detect", trace, ensemble,
                   "-o", str(tmp_path / "v.jsonl")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert names in err and "Traceback" not in err
