import argparse
import ast
import dataclasses
import hashlib
import inspect
import json
import math
import textwrap
from pathlib import Path

import pytest

from atrellis import anomaly_ensemble as ens
from atrellis import traffic_model as tm
from atrellis.cli import build_parser, main
from atrellis.neural_autoencoder import AEArchitecture

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
        manifest = json.loads(Path(out + ".manifest.json").read_text())
        n_lines = len(Path(out).read_text().splitlines())
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
        manifest = json.loads(Path(out + ".manifest.json").read_text())
        assert manifest["label_counts"]["attack:PortScan"] == 20

    @pytest.mark.parametrize("spec, names", [
        ({"kind": "HttpMasqCnc", "target": "api"},
         "spec: field target has the wrong type str"),
        ({"kind": "HttpMasqCnc", "target": {"domain": "api.example.com"}},
         "target: missing field ip"),
        ({"kind": "PortScan", "rate": "x"},
         "spec: field rate has the wrong type str"),
        ({"kind": "PortScan", "rate": float("nan")},
         "attack start/rate/duration out of range"),
    ], ids=["target-str", "target-no-ip", "rate-str", "rate-nan"])
    def test_bad_attack_exits_2_naming_the_flag(self, tmp_path, capsys,
                                                spec, names):
        out = tmp_path / "t.jsonl"
        rc = main(["simulate", "--fixture", "hub", "--duration", "60",
                   "--attack", json.dumps(spec), "-o", str(out)])
        assert rc == 2
        assert_one_error_line(capsys, f"error: --attack: {names}")
        assert not out.exists()

    @pytest.mark.parametrize("spec, n_flows", [
        ({"kind": "PortScan", "target": {"n_ports": 0}}, 0),
        ({"kind": "PortScan", "target": {"n_ports": -5}}, -5),
        ({"kind": "TelnetBrute", "start": 10, "rate": 0.001,
          "duration": 60}, 0),
    ], ids=["no-ports", "negative-ports", "rate-times-duration-below-1"])
    def test_attack_that_injects_no_flow_exits_1(self, tmp_path, capsys,
                                                 spec, n_flows):
        out = tmp_path / "t.jsonl"
        rc = main(["simulate", "--fixture", "hub", "--duration", "120",
                   "--attack", json.dumps(spec), "-o", str(out)])
        assert rc == 1
        assert_one_error_line(capsys, f"error: attack {spec['kind']}: ",
                              f" {n_flows} flows")
        assert not out.exists()
        assert not (tmp_path / "t.jsonl.manifest.json").exists()

    def test_unknown_attack_and_activity_fields_are_ignored(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"device_ip": "10.0.0.5", "activities": [
            dict(TestSpecFile.ACTIVITY, note="not read")]}))
        atk = {"kind": "PortScan", "note": "not read"}
        out = tmp_path / "t.jsonl"
        assert main(["simulate", "--spec", str(spec), "--duration", "120",
                     "--attack", json.dumps(atk), "-o", str(out)]) == 0
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        assert manifest["label_counts"]["attack:PortScan"] == 60


class TestProfile:
    def test_camera_reports_keys(self, tmp_path, capsys):
        trace = str(tmp_path / "t.jsonl")
        main(["simulate", "--fixture", "camera", "--duration", "1200",
              "-o", trace] + SEED)
        profile = str(tmp_path / "p.json")
        assert main(["profile", trace, "-o", profile]) == 0
        doc = json.loads(Path(profile).read_text())
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
        doc = json.loads(Path(metrics).read_text())
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
            assert Path(fa).read_bytes() == Path(fb).read_bytes()

    def test_dump_features(self, tmp_path):
        trace, profile, ensemble, _, _ = run_pipeline(tmp_path,
                                                      duration="600",
                                                      epochs="10")
        dump = str(tmp_path / "features.jsonl")
        assert main(["detect", trace, ensemble, "-o",
                     str(tmp_path / "v2.jsonl"), "--dump-features",
                     dump]) == 0
        rows = [json.loads(line)
                for line in Path(dump).read_text().splitlines()]
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
        doc = json.loads(Path(ensemble).read_text())
        doc["schema_version"] = "9.9"
        Path(ensemble).write_text(json.dumps(doc))
        rc = main(["detect", trace, ensemble,
                   "-o", str(tmp_path / "v.jsonl")])
        assert rc == 1
        assert "schema_version" in capsys.readouterr().err

    def test_verdicts_cut_at_a_line_exit_1_naming_an_unjudged_flow(
            self, small_run, tmp_path, capsys):
        trace, _, _, verdicts, _ = small_run
        lines = Path(verdicts).read_text().splitlines()
        cut = tmp_path / "verdicts.jsonl"
        cut.write_text("\n".join(lines[:5]) + "\n")
        first_missing = ens.verdict_from_dict(json.loads(lines[5])).flow
        capsys.readouterr()
        rc = main(["eval", trace, str(cut), "-o", str(tmp_path / "m.json")])
        assert rc == 1
        assert_one_error_line(
            capsys, f"{len(lines) - 5} of the {len(lines)} flows of {trace} "
                    f"have no verdict in {cut}",
            f"the first is {first_missing}")
        assert not (tmp_path / "m.json").exists()

    def test_empty_verdicts_exit_1(self, small_run, tmp_path, capsys):
        trace = small_run[0]
        empty = tmp_path / "verdicts.jsonl"
        empty.write_text("")
        capsys.readouterr()
        rc = main(["eval", trace, str(empty), "-o", str(tmp_path / "m.json")])
        assert rc == 1
        assert_one_error_line(capsys, f"{empty} holds no verdicts",
                              "no device IP")


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    return run_pipeline(tmp_path_factory.mktemp("run"), duration="600",
                        epochs="10")


def assert_one_error_line(capsys, *names):
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "Traceback" not in err
    for name in names:
        assert name in err


class TestCorruptEnsemble:
    @pytest.mark.parametrize("corrupt, names", [
        (lambda m: m["weights"]["w1"][0][0].__setitem__(0, float("nan")),
         "w1"),
        (lambda m: [row.pop() for row in m["weights"]["w2"]], "w2"),
        (lambda m: m.pop("weights"), "model: missing field weights"),
        (lambda m: m.pop("seed"), "seed"),
    ])
    def test_bad_weights_exit_1_without_traceback(self, small_run, tmp_path,
                                                  capsys, corrupt, names):
        trace, _, ensemble, _, _ = small_run
        doc = json.loads(Path(ensemble).read_text())
        corrupt(doc["submodels"][0]["model"])
        bad = str(tmp_path / "ensemble.json")
        Path(bad).write_text(json.dumps(doc))
        capsys.readouterr()
        rc = main(["detect", trace, bad, "-o", str(tmp_path / "v.jsonl")])
        assert rc == 1
        assert_one_error_line(capsys, names)


    @pytest.mark.parametrize("corrupt, names", [
        (lambda d: d["submodels"][0].__setitem__("epsilon", "x"),
         "submodel 0: field epsilon has the wrong type str"),
        (lambda d: d["submodels"][0].__setitem__("epsilon", float("nan")),
         "submodel 0: epsilon nan is not in"),
        (lambda d: d["submodels"][0].__setitem__("epsilon", -1.0),
         "submodel 0: epsilon -1.0 is not in"),
        (lambda d: d.pop("device_ip"), "missing field device_ip"),
        (lambda d: d["submodels"][0].pop("model"), "missing field model"),
        (lambda d: d["submodels"][0]["remote_pattern"].__setitem__(
            "kind", "anycast"), "unknown kind 'anycast'"),
        (lambda d: d["submodels"][0]["dst_port_pattern"].__setitem__(
            "kind", "range"), "unknown kind 'range'"),
        (lambda d: d["submodels"][0].pop("proto"), "missing field proto"),
        (lambda d: d.__setitem__("submodels", {}),
         "field submodels has the wrong type dict"),
        (lambda d: d.__setitem__("schema_version", "1.0"),
         "unsupported schema_version '1.0'"),
        (lambda d: d.__setitem__("schema_version", "2.0"),
         "unsupported schema_version '2.0'"),
        (lambda d: d.pop("local_prefixes"), "missing field local_prefixes"),
        (lambda d: d.__setitem__("local_prefixes", ["garbage"]),
         "ensemble: local_prefixes: "),
    ], ids=["epsilon-str", "epsilon-nan", "epsilon-negative", "no-device-ip",
            "no-model", "remote-kind", "port-kind", "no-proto",
            "submodels-not-list", "schema-1.0", "schema-2.0",
            "no-local-prefixes", "local-prefix-garbage"])
    def test_bad_document_exits_1_without_traceback(
            self, small_run, tmp_path, capsys, corrupt, names):
        trace, _, ensemble, _, _ = small_run
        doc = json.loads(Path(ensemble).read_text())
        corrupt(doc)
        bad = str(tmp_path / "ensemble.json")
        Path(bad).write_text(json.dumps(doc))
        capsys.readouterr()
        rc = main(["detect", trace, bad, "-o", str(tmp_path / "v.jsonl")])
        assert rc == 1
        assert_one_error_line(capsys, names)

    def test_wildcard_value_without_its_dot_exits_1(self, small_run,
                                                    tmp_path, capsys):
        """A wildcard ``vendor.com`` would match ``evilvendor.com``."""
        trace, _, ensemble, _, _ = small_run
        doc = json.loads(Path(ensemble).read_text())
        doc["submodels"][0]["remote_pattern"] = {"kind": "wildcard",
                                                 "value": "vendor.com"}
        bad = str(tmp_path / "ensemble.json")
        Path(bad).write_text(json.dumps(doc))
        capsys.readouterr()
        rc = main(["detect", trace, bad, "-o", str(tmp_path / "v.jsonl")])
        assert rc == 1
        assert_one_error_line(capsys, "submodel 0 remote_pattern: wildcard "
                              "value 'vendor.com'")

    def test_holds_no_member_flows(self, small_run):
        ensemble = small_run[2]
        text = Path(ensemble).read_text()
        assert "member_flows" not in text and "profile" not in text


class TestCorruptProfile:
    def test_unknown_pattern_kind_exits_1_at_train(self, small_run, tmp_path,
                                                   capsys):
        trace, profile, _, _, _ = small_run
        doc = json.loads(Path(profile).read_text())
        doc["keys"][0]["remote_pattern"]["kind"] = "anycast"
        bad = str(tmp_path / "profile.json")
        Path(bad).write_text(json.dumps(doc))
        capsys.readouterr()
        rc = main(["train", trace, bad, "--epochs", "1",
                   "-o", str(tmp_path / "e.json")])
        assert rc == 1
        assert_one_error_line(capsys, "profile key 0 remote_pattern: "
                                      "unknown kind 'anycast'")


class TestTruncatedArtifact:
    def test_train_with_a_truncated_profile_exits_1(self, small_run,
                                                    tmp_path, capsys):
        trace, profile, _, _, _ = small_run
        bad = str(tmp_path / "profile.json")
        Path(bad).write_bytes(Path(profile).read_bytes()[:500])
        capsys.readouterr()
        rc = main(["train", trace, bad, "--epochs", "1",
                   "-o", str(tmp_path / "e.json")])
        assert rc == 1
        assert_one_error_line(capsys, f"error: {bad}: ", "(char ")

    def test_detect_with_a_truncated_ensemble_exits_1(self, small_run,
                                                      tmp_path, capsys):
        trace, _, ensemble, _, _ = small_run
        bad = str(tmp_path / "ensemble.json")
        Path(bad).write_bytes(Path(ensemble).read_bytes()[:500])
        capsys.readouterr()
        rc = main(["detect", trace, bad, "-o", str(tmp_path / "v.jsonl")])
        assert rc == 1
        assert_one_error_line(capsys, f"error: {bad}: ", "(char 500)")


class TestBadOptionValues:
    """Each option value is checked before any file is read, by the CLI
    itself, the architecture class or ipaddress; a bad one is a usage
    error that names the flag."""

    @pytest.mark.parametrize("option, reason", [
        (["--quantile", "1.5"], "quantile must be in (0,1), got 1.5"),
        (["--r", "0"], "r must be >= 3, the kernel size, got 0"),
        (["--epochs", "0"], "epochs must be >= 1, got 0"),
    ], ids=["quantile", "r", "epochs"])
    def test_train_exits_2(self, small_run, tmp_path, capsys, option,
                           reason):
        trace, profile, _, _, _ = small_run
        capsys.readouterr()
        rc = main(["train", trace, profile, *option,
                   "-o", str(tmp_path / "e.json")])
        assert rc == 2
        assert_one_error_line(capsys, f"error: {option[0]}: {reason}")
        assert not (tmp_path / "e.json").exists()

    @pytest.mark.parametrize("command, option, reason", [
        ("train", ["--r", "1"], "r must be >= 3, the kernel size, got 1"),
        ("train", ["--r", "2"], "r must be >= 3, the kernel size, got 2"),
        ("train", ["--quantile", "1.5"],
         "quantile must be in (0,1), got 1.5"),
        ("train", ["--epochs", "0"], "epochs must be >= 1, got 0"),
        ("profile", ["--h-s", "2"], "h_s must be in [0,1], got 2.0"),
    ], ids=["1", "2", "quantile", "epochs", "profile-h-s"])
    def test_train_r_below_the_kernel_exits_2_before_reading(
            self, small_run, tmp_path, capsys, command, option, reason):
        """Each option is checked before the missing trace is opened."""
        inputs = [str(tmp_path / "missing.jsonl")]
        if command == "train":
            inputs.append(small_run[1])
        capsys.readouterr()
        rc = main([command, *inputs, *option, "-o", str(tmp_path / "out")])
        assert rc == 2
        assert_one_error_line(capsys, f"error: {option[0]}: {reason}")

    @pytest.mark.parametrize("option, names", [
        (["--h-s", "2"], ["error: --h-s: h_s must be in [0,1], got 2.0"]),
        (["--local-prefix", "garbage"],
         ["error: --local-prefix: ", "'garbage'"]),
    ], ids=["h-s", "local-prefix"])
    def test_profile_exits_2(self, small_run, tmp_path, capsys, option,
                             names):
        trace = small_run[0]
        capsys.readouterr()
        rc = main(["profile", trace, *option, "-o", str(tmp_path / "p.json")])
        assert rc == 2
        assert_one_error_line(capsys, *names)

    def test_eval_local_prefix_exits_2(self, small_run, tmp_path, capsys):
        trace, _, _, verdicts, _ = small_run
        capsys.readouterr()
        rc = main(["eval", trace, verdicts, "--local-prefix", "garbage",
                   "-o", str(tmp_path / "m.json")])
        assert rc == 2
        assert_one_error_line(capsys, "error: --local-prefix: ", "'garbage'")


class TestSpecFile:
    ACTIVITY = {"name": "a", "remote_ip": "203.0.113.5", "dst_port": 443,
                "proto": "TCP", "period": 30.0, "sizes": [100],
                "size_probs": [1.0]}

    def simulate(self, tmp_path, text):
        path = str(tmp_path / "spec.json")
        Path(path).write_text(text)
        rc = main(["simulate", "--spec", path, "--duration", "60",
                   "-o", str(tmp_path / "t.jsonl")])
        return rc, path

    @pytest.mark.parametrize("edit, reason", [
        (lambda a: a.pop("remote_ip"), "activity 0: missing field remote_ip"),
        (lambda a: a.__setitem__("period", "30"),
         "activity 0: field period has the wrong type str"),
        (lambda a: a.__setitem__("sizes", ["100"]),
         "activity 0: sizes holds a value of the wrong type"),
    ], ids=["no-remote-ip", "period-str", "size-str"])
    def test_bad_activity_exits_1_naming_the_spec(self, tmp_path, capsys,
                                                  edit, reason):
        activity = dict(self.ACTIVITY)
        edit(activity)
        rc, path = self.simulate(tmp_path, json.dumps(
            {"device_ip": "10.0.0.5", "activities": [activity]}))
        assert rc == 1
        assert_one_error_line(capsys, f"error: {path} {reason}")

    @pytest.mark.parametrize("field, value, reason", [
        ("size_probs", [1.5, -0.5], "probabilities must be >= 0"),
        ("size_probs", [math.nan, 0.5], "probabilities must be >= 0"),
        ("sizes", [0, 200], "size 0 is not in 1-65535"),
        ("sizes", [100, 70000], "size 70000 is not in 1-65535"),
        ("jitter", -1.0, "jitter must be finite and >= 0"),
        ("intra_gap", -5.0, "intra_gap must be finite and >= 0"),
        ("period", math.nan, "period must be > 0"),
    ], ids=["negative-prob", "nan-prob", "size-0", "size-70000",
            "negative-jitter", "negative-gap", "nan-period"])
    def test_activity_the_simulator_cannot_draw_exits_1(
            self, tmp_path, capsys, field, value, reason):
        activity = dict(self.ACTIVITY, sizes=[100, 200],
                        size_probs=[0.5, 0.5])
        activity[field] = value
        rc, _ = self.simulate(tmp_path, json.dumps(
            {"device_ip": "10.0.0.5", "activities": [activity]}))
        assert rc == 1
        assert_one_error_line(capsys, f"error: activity a: {reason}")
        assert not (tmp_path / "t.jsonl").exists()

    @pytest.mark.parametrize("period, shortest", [
        (math.inf, "inf"), (90.0, "90.0"),
    ], ids=["infinite-period", "period-past-duration"])
    def test_spec_with_no_burst_in_the_duration_exits_1(
            self, tmp_path, capsys, period, shortest):
        rc, _ = self.simulate(tmp_path, json.dumps(
            {"device_ip": "10.0.0.5",
             "activities": [dict(self.ACTIVITY, period=period)]}))
        assert rc == 1
        assert_one_error_line(
            capsys, "error: no burst starts within the duration of 60.0 s; "
            f"the shortest period is {shortest} s")
        assert not (tmp_path / "t.jsonl").exists()

    def test_spec_that_is_not_json_exits_1_naming_the_spec(self, tmp_path,
                                                           capsys):
        rc, path = self.simulate(tmp_path, '{"device_ip": "10.0.0.5", ')
        assert rc == 1
        assert_one_error_line(capsys, f"error: {path}: ", "(char ")

    def test_good_spec_simulates(self, tmp_path):
        rc, _ = self.simulate(tmp_path, json.dumps(
            {"device_ip": "10.0.0.5", "activities": [
                dict(self.ACTIVITY, bidirectional=False, jitter=1)]}))
        assert rc == 0


LAN_SPEC = {"device_ip": "192.168.1.10", "activities": [
    {"name": "lan_poll", "remote_ip": "192.168.1.50", "dst_port": 8080,
     "proto": "TCP", "period": 20.0, "sizes": [180, 260],
     "size_probs": [0.5, 0.5]},
    {"name": "cloud_sync", "remote_ip": "203.0.113.9", "dst_port": 443,
     "proto": "TCP", "period": 30.0, "sizes": [700, 900],
     "size_probs": [0.5, 0.5], "domain": "api.example.com"},
]}


class TestKeyingFromArtifacts:
    """profile records the device IP and local prefixes; train and detect
    key their traces with them and take no keying flags.  eval takes the
    device IP from its verdicts."""

    DEVICE_IP = ["--device-ip", "192.168.1.10"]
    LOCAL_PREFIX = ["--local-prefix", "192.168.1.0/24"]

    @pytest.mark.parametrize("stage, flag", [
        ("train", DEVICE_IP), ("detect", DEVICE_IP), ("eval", DEVICE_IP),
        ("train", LOCAL_PREFIX), ("detect", LOCAL_PREFIX),
    ], ids=["device-ip-train", "device-ip-detect", "device-ip-eval",
            "local-prefix-train", "local-prefix-detect"])
    def test_keying_flag_is_a_usage_error(self, small_run, tmp_path, capsys,
                                          stage, flag):
        trace, profile, ensemble, verdicts, _ = small_run
        artifact = {"train": profile, "detect": ensemble,
                    "eval": verdicts}[stage]
        with pytest.raises(SystemExit) as info:
            main([stage, trace, artifact, *flag,
                  "-o", str(tmp_path / "out")])
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err

    @pytest.fixture(scope="class")
    def lan_run(self, tmp_path_factory):
        """The LAN spec profiled with its /24 as local prefix, trained on
        seed 1 and judged on seed 2."""
        d = tmp_path_factory.mktemp("lan")
        spec = d / "spec.json"
        spec.write_text(json.dumps(LAN_SPEC))
        p = lambda name: str(d / name)  # noqa: E731
        for seed in ("1", "2"):
            assert main(["simulate", "--spec", str(spec), "--duration",
                         "1800", "--seed", seed,
                         "-o", p(f"t{seed}.jsonl")]) == 0
        assert main(["profile", p("t1.jsonl"), "--local-prefix",
                     "192.168.1.0/24", "-o", p("profile.json")]) == 0
        assert main(["train", p("t1.jsonl"), p("profile.json"),
                     "--epochs", "20", "-o", p("ensemble.json")]) == 0
        assert main(["detect", p("t2.jsonl"), p("ensemble.json"),
                     "-o", p("verdicts.jsonl")]) == 0
        return p

    def test_lan_flows_are_keyed_as_the_profile_keyed_them(self, lan_run):
        p = lan_run
        ensemble = json.loads(Path(p("ensemble.json")).read_text())
        assert ensemble["local_prefixes"] == ["192.168.1.0/24"]
        verdicts = [json.loads(line) for line
                    in Path(p("verdicts.jsonl")).read_text().splitlines()]
        lan = [v for v in verdicts
               if v["flow_key"]["remote"]["value"] == "192.168.1.50"]
        assert lan and all(v["flow_key"]["remote"]["kind"] == "local_ip"
                           for v in lan)
        assert not [v for v in lan if v["kind"] == "stage1_malicious"]

    def test_eval_without_the_profiles_prefix_names_flow_and_keying(
            self, lan_run, capsys):
        p = lan_run
        assert main(["eval", p("t2.jsonl"), p("verdicts.jsonl"),
                     "--local-prefix", "192.168.1.0/24",
                     "-o", p("m.json")]) == 0
        capsys.readouterr()
        assert main(["eval", p("t2.jsonl"), p("verdicts.jsonl"),
                     "-o", p("m.json")]) == 1
        assert_one_error_line(
            capsys, f"{p('verdicts.jsonl')}:", "local_ip 192.168.1.50:8080",
            f"is not in {p('t2.jsonl')}", "--local-prefix",
            "must match the profile's")

    DEVICE, PEER = "192.168.1.10", "203.0.113.5"

    def one_peer_trace(self, tmp_path):
        """8 flows with one peer, whose packet opens each flow: the first
        packet of the trace is inbound, and both of its endpoints are in
        every packet, so the trace alone cannot tell which one is the
        device."""
        device, peer = self.DEVICE, self.PEER
        trace = tmp_path / "t.jsonl"
        with open(trace, "w") as fh:
            for i in range(8):
                port = 50000 + i
                for ts, src, dst, sport, dport, length in (
                        (30.0 * i, peer, device, 443, port, 120),
                        (30.0 * i + 0.1, device, peer, port, 443, 80)):
                    fh.write(json.dumps({
                        "ts": ts, "src_ip": src, "dst_ip": dst,
                        "src_port": sport, "dst_port": dport, "proto": "TCP",
                        "length": length, "label": "benign"}) + "\n")
        return trace

    def test_profile_refuses_to_guess_between_two_endpoints(self, tmp_path,
                                                            capsys):
        trace = self.one_peer_trace(tmp_path)
        out = tmp_path / "profile.json"
        assert main(["profile", str(trace), "-o", str(out)]) == 1
        assert_one_error_line(
            capsys, f"error: both {self.PEER} and {self.DEVICE} ",
            "--device-ip")
        assert not out.exists()

    def test_eval_keys_the_trace_with_the_verdicts_device_ip(self,
                                                             tmp_path):
        trace = self.one_peer_trace(tmp_path)
        p = lambda name: str(tmp_path / name)  # noqa: E731
        assert main(["profile", str(trace), "--device-ip", self.DEVICE,
                     "-o", p("profile.json")]) == 0
        assert main(["train", str(trace), p("profile.json"), "--epochs", "2",
                     "-o", p("ensemble.json")]) == 0
        assert main(["detect", str(trace), p("ensemble.json"),
                     "-o", p("verdicts.jsonl")]) == 0
        assert main(["eval", str(trace), p("verdicts.jsonl"),
                     "-o", p("metrics.json")]) == 0
        assert json.loads(Path(p("metrics.json")).read_text())[
            "n_benign"] == 8


def subcommands() -> dict:
    """Each subcommand's name and parser."""
    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def test_every_declared_option_is_read():
    """Each subcommand's function reads ``args.<dest>`` for every option
    its parser declares, so no flag is accepted and then ignored."""
    for name, sub in subcommands().items():
        func = sub.get_default("func")
        tree = ast.parse(textwrap.dedent(inspect.getsource(func)))
        read = {node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "args"}
        declared = {a.dest for a in sub._actions
                    if not isinstance(a, argparse._HelpAction)}
        assert declared <= read, (name, sorted(declared - read))


SETTABLE = [
    "simulate.fixture", "simulate.spec", "simulate.duration", "simulate.seed",
    "simulate.attack", "simulate.out",
    "profile.out", "profile.strict", "profile.local_prefix",
    "profile.device_ip", "profile.h_s",
    "train.out", "train.strict", "train.r", "train.quantile", "train.seed",
    "train.epochs",
    "detect.out", "detect.strict", "detect.dump_features",
    "eval.out", "eval.strict", "eval.local_prefix",
    "AEArchitecture.r",
]


def test_settable_values_are_pinned():
    """Every optional argument of every subcommand, once per dest, and
    every field of the architecture: a new setting has to be added to
    SETTABLE."""
    found = [f"{name}.{a.dest}" for name, sub in subcommands().items()
             for a in sub._actions
             if a.option_strings and not isinstance(a, argparse._HelpAction)]
    found += [f"AEArchitecture.{field.name}"
              for field in dataclasses.fields(AEArchitecture)]
    assert sorted(found) == sorted(SETTABLE)
    assert len(SETTABLE) == 24


def edited(doc, path, value=None):
    """The JSON text of ``doc`` with the field at ``path`` set to
    ``value``, or removed when ``value`` is None."""
    target = doc
    for name in path[:-1]:
        target = target[name]
    if value is None:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    return json.dumps(doc)


class TestMalformedVerdicts:
    @pytest.fixture(scope="class")
    def lines(self, small_run):
        """A stage-2 verdict line first, then every other line."""
        _, _, _, verdicts, _ = small_run
        lines = Path(verdicts).read_text().splitlines()
        lines.sort(key=lambda line: '"score"' not in line)
        return lines

    @pytest.mark.parametrize("corrupt, reason", [
        (lambda d: json.dumps(d)[:30], "Unterminated string"),
        (lambda d: "[1, 2]", "not a JSON object: list"),
        (lambda d: edited(d, ["flow_key"]),
         "verdict: missing field flow_key"),
        (lambda d: edited(d, ["kind"]), "verdict: missing field kind"),
        (lambda d: edited(d, ["models_triggered"]),
         "verdict: missing field models_triggered"),
        (lambda d: edited(d, ["flow_key", "remote"]),
         "verdict flow_key: missing field remote"),
        (lambda d: edited(d, ["flow_key", "dst_port"], 70000),
         "dst_port 70000 is not an integer in 0-65535"),
        (lambda d: edited(d, ["flow_key", "proto"], "ICMP"),
         "unknown proto 'ICMP'"),
        (lambda d: edited(d, ["kind"], "suspicious"),
         "verdict: unknown kind 'suspicious'"),
        (lambda d: edited(d, ["score"]), "needs a finite score, got None"),
        (lambda d: edited(d, ["score"], float("nan")),
         "needs a finite score, got nan"),
    ], ids=["truncated", "not-object", "no-flow-key", "no-kind",
            "no-models-triggered", "no-remote", "port-70000", "proto-icmp",
            "unknown-kind", "no-score", "nan-score"])
    def test_bad_line_exits_1_naming_path_and_line(
            self, small_run, lines, tmp_path, capsys, corrupt, reason):
        trace = small_run[0]
        line = corrupt(json.loads(lines[0]))
        bad = str(tmp_path / "verdicts.jsonl")
        Path(bad).write_text("\n".join([lines[1], line] + lines[2:]) + "\n")
        capsys.readouterr()
        rc = main(["eval", trace, bad, "-o", str(tmp_path / "m.json")])
        assert rc == 1
        assert_one_error_line(capsys, f"{bad}:2: ", reason)

    def test_second_verdict_for_a_flow_exits_1(self, small_run, lines,
                                               tmp_path, capsys):
        trace = small_run[0]
        bad = str(tmp_path / "verdicts.jsonl")
        Path(bad).write_text("\n".join(lines + [lines[3]]) + "\n")
        capsys.readouterr()
        rc = main(["eval", trace, bad, "-o", str(tmp_path / "m.json")])
        assert rc == 1
        assert_one_error_line(capsys, f"{bad}:{len(lines) + 1}: ",
                              "was judged on an earlier line",
                              "a second verdict for it")


class TestMalformedTrace:
    GOOD = json.dumps({"ts": 1.0, "src_ip": "192.168.1.10",
                       "dst_ip": "203.0.113.5", "src_port": 40000,
                       "dst_port": 443, "proto": "TCP", "length": 60})

    @pytest.mark.parametrize("line, reason", [
        (GOOD[:40], "Unterminated string"),
        ("[1, 2]", "not a JSON object"),
        (GOOD + " {}", "data after the JSON object"),
        (GOOD.replace("40000", "70000"), "port out of range: 70000"),
        (GOOD.replace("1.0", '"noon"'), "'ts'"),
        (GOOD.replace(', "proto": "TCP"', ""), "missing packet fields"),
    ], ids=["truncated", "not-object", "trailing-data", "port-70000",
            "non-numeric-ts", "missing-field"])
    def test_bad_line_exits_1_naming_path_and_line(self, tmp_path, capsys,
                                                   line, reason):
        trace = str(tmp_path / "t.jsonl")
        with open(trace, "w") as fh:
            fh.write(f"{self.GOOD}\n\n{line}\n{self.GOOD}\n")
        rc = main(["profile", trace, "-o", str(tmp_path / "p.json")])
        assert rc == 1
        assert_one_error_line(capsys, f"{trace}:3: ", reason)

    def test_bytes_that_are_not_utf8_name_path_and_line(self, tmp_path,
                                                       capsys):
        trace = str(tmp_path / "t.jsonl")
        with open(trace, "wb") as fh:
            fh.write(self.GOOD.encode() + b"\n\xff\xfe\n"
                     + self.GOOD.encode() + b"\n")
        rc = main(["profile", trace, "-o", str(tmp_path / "p.json")])
        assert rc == 1
        assert_one_error_line(capsys, f"{trace}:2: ", "utf-8")


class TestOutOfOrderFlow:
    """One flow of 14 packets whose 13th, after the r = 10 that features
    read, is earlier than the 12th."""

    @staticmethod
    def write(path, device_ip, late_ts):
        with open(path, "w") as fh:
            for i in range(14):
                ts = late_ts if i == 12 else float(i)
                fh.write(json.dumps({
                    "ts": ts, "src_ip": device_ip, "dst_ip": "203.0.113.5",
                    "src_port": 40000, "dst_port": 443, "proto": "TCP",
                    "length": 60 + i, "label": "benign"}) + "\n")

    @pytest.mark.parametrize("stage", ["profile", "train", "detect", "eval"])
    def test_every_stage_exits_1(self, small_run, tmp_path, capsys, stage):
        _, profile, ensemble, _, _ = small_run
        device_ip = json.loads(Path(ensemble).read_text())["device_ip"]
        good, bad = str(tmp_path / "good.jsonl"), str(tmp_path / "bad.jsonl")
        self.write(good, device_ip, 12.0)
        self.write(bad, device_ip, 10.5)
        verdicts = str(tmp_path / "v.jsonl")
        assert main(["detect", good, ensemble, "-o", verdicts]) == 0
        args = {"profile": ["--device-ip", device_ip],
                "train": [profile, "--epochs", "1"],
                "detect": [ensemble], "eval": [verdicts]}[stage]
        capsys.readouterr()
        rc = main([stage, bad, *args, "-o", str(tmp_path / "out")])
        assert rc == 1
        assert_one_error_line(capsys, f"error: {bad}:13: flow TCP ",
                              "ts 10.5")
        assert not (tmp_path / "out").exists()

    def test_line_counts_blank_lines_and_not_an_equal_earlier_packet(
            self, tmp_path, capsys):
        def line(ts):
            return json.dumps({
                "ts": ts, "src_ip": "192.168.1.10", "dst_ip": "203.0.113.5",
                "src_port": 40000, "dst_port": 443, "proto": "TCP",
                "length": 60})

        bad = str(tmp_path / "bad.jsonl")
        with open(bad, "w") as fh:
            fh.write("\n".join([line(0.0), "", line(10.5), "  ", line(11.0),
                                line(10.5)]) + "\n")
        rc = main(["profile", bad, "--device-ip", "192.168.1.10",
                   "-o", str(tmp_path / "out")])
        assert rc == 1
        assert_one_error_line(capsys, f"error: {bad}:6: flow TCP ",
                              "ts 10.5")


class TestPinnedBytes:
    """The bytes of a camera trace, of its profile and of a camera trace
    with every attack kind, as the code wrote them when these digests were
    taken.  No BLAS arithmetic runs up to the profile, so they hold on any
    host; a change that moves a byte in simulate, parse, flow keying or
    profile fails here and has to say why its bytes differ."""

    TRACE_SHA256 = ("42a7f1153b86bbc7b7d12e949a55c0f0"
                    "4d53c256dc6f9d372718f74d9b96679b")
    PROFILE_SHA256 = ("4716ec28b18237e017d54953df6b2128"
                      "cc858cdef28f9fe0b652d0c3f578244b")

    def test_simulated_trace_and_its_profile(self, tmp_path):
        trace, profile = str(tmp_path / "t.jsonl"), str(tmp_path / "p.json")
        assert main(["simulate", "--fixture", "camera", "--duration", "3600",
                     "-o", trace] + SEED) == 0
        assert main(["profile", trace, "-o", profile]) == 0
        for path, digest in ((trace, self.TRACE_SHA256),
                             (profile, self.PROFILE_SHA256)):
            with open(path, "rb") as fh:
                assert hashlib.sha256(fh.read()).hexdigest() == digest, path

    ATTACKED_TRACE_SHA256 = ("024929574fa044dc4ab609c913e55a60"
                             "f42fc59071521ec246b9c054882bd84c")
    ATTACKS = [
        {"kind": "HttpMasqCnc", "start": 100, "rate": 0.05, "duration": 3000,
         "target": {"domain": "api.cam-vendor.com", "ip": "203.0.113.11"}},
        {"kind": "Flood", "start": 900, "rate": 1, "duration": 60,
         "target": {"ip": "203.0.113.10", "dst_port": 443,
                    "domain": "upload.cam-vendor.com"}},
        {"kind": "PortScan", "start": 200, "rate": 20, "duration": 10},
        {"kind": "TelnetBrute", "start": 1500, "rate": 2, "duration": 60},
    ]

    def test_trace_with_every_attack_kind(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        attacks = [arg for atk in self.ATTACKS
                   for arg in ("--attack", json.dumps(atk))]
        assert main(["simulate", "--fixture", "camera", "--duration", "3600",
                     "-o", str(trace)] + attacks + SEED) == 0
        data = trace.read_bytes()
        assert data.count(b"\n") == 8386
        assert hashlib.sha256(data).hexdigest() == self.ATTACKED_TRACE_SHA256


class TestReaderFastPath:
    def test_pinned_attacked_trace_reads_without_the_json_decoder(
            self, tmp_path, monkeypatch):
        """Every line that simulate writes takes the reader's fast path:
        reading the pinned trace never calls the JSON decoder, and gives
        what the JSON parse alone reads."""
        trace = tmp_path / "t.jsonl"
        attacks = [arg for atk in TestPinnedBytes.ATTACKS
                   for arg in ("--attack", json.dumps(atk))]
        assert main(["simulate", "--fixture", "camera", "--duration", "3600",
                     "-o", str(trace)] + attacks + SEED) == 0
        assert hashlib.sha256(trace.read_bytes()).hexdigest() == \
            TestPinnedBytes.ATTACKED_TRACE_SHA256
        by_json = list(tm.read_jsonl(trace, tm.packet_from_dict))

        def refuse(*args):
            raise AssertionError("the JSON decoder was called")

        monkeypatch.setattr(tm, "_raw_decode", refuse)
        packets = list(tm.read_packets_jsonl(trace))
        assert len(packets) == 8386
        assert [[(type(v), repr(v)) for v in p] for p in packets] == \
            [[(type(v), repr(v)) for v in p] for p in by_json]


class TestSimulatorPorts:
    def test_too_many_activities_for_the_source_ports(self, tmp_path,
                                                      capsys):
        spec = {"device_ip": "192.168.1.10", "activities": [
            {"name": f"a{i}", "remote_ip": "203.0.113.5", "dst_port": 443,
             "proto": "TCP", "period": 1.0, "sizes": [100],
             "size_probs": [1.0]} for i in range(12)]}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "t.jsonl"
        rc = main(["simulate", "--spec", str(path), "--duration", "2600",
                   "-o", str(out)])
        assert rc == 1
        assert_one_error_line(capsys, "activity a11", "65599", "past 65535")
        assert not out.exists()

    def test_too_many_attack_flows_for_the_source_ports(self, tmp_path,
                                                        capsys):
        atk = {"kind": "PortScan", "start": 0, "rate": 5,
               "target": {"n_ports": 20000}}
        rc = main(["simulate", "--fixture", "hub", "--duration", "60",
                   "--attack", json.dumps(atk),
                   "-o", str(tmp_path / "t.jsonl")])
        assert rc == 1
        assert_one_error_line(capsys, "attack PortScan", "past 65535")
