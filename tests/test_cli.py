import argparse
import ast
import base64
import contextlib
import dataclasses
import hashlib
import inspect
import json
import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from atrellis import anomaly_ensemble as ens
from atrellis import clustering_tree as ct
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
         "attack PortScan: start/rate/duration out of range"),
        ({"kind": "TelnetBrute", "start": 10 ** 400},
         "attack TelnetBrute: start/rate/duration out of range"),
        ({"kind": "TelnetBrute", "durattion": 5},
         "spec: unknown field 'durattion'"),
        ({"kind": "Flood", "target": {"ip": "203.0.113.5", "dst_port": 443,
                                      "n_ports": 3}},
         "target: unknown field 'n_ports'"),
        ({"kind": "PortScan", "rate": 5e-324},
         "attack PortScan: start/rate/duration out of range"),
    ], ids=["target-str", "target-no-ip", "rate-str", "rate-nan",
            "start-401-digits", "unknown-field", "unknown-target-field",
            "gap-between-flows-inf"])
    def test_bad_attack_exits_2_naming_the_flag(self, tmp_path, capsys,
                                                spec, names):
        out = tmp_path / "t.jsonl"
        rc = main(["simulate", "--fixture", "hub", "--duration", "60",
                   "--attack", json.dumps(spec), "-o", str(out)])
        assert rc == 2
        assert_one_error_line(capsys, f"error: --attack: {names}")
        assert not out.exists()

    @pytest.mark.parametrize("spec, reason", [
        ({"kind": "TelnetBrute", "rate": 1e300, "duration": 1e300},
         "attack TelnetBrute: its inf flows would use source ports up to "
         "inf"),
        ({"kind": "HttpMasqCnc", "target": {
            "ip": "203.0.113.5", "domain": "a.example",
            "beacon_gap": 10 ** 400}},
         "activity http-masq-cnc: intra_gap must be finite and >= 0"),
        ({"kind": "HttpMasqCnc", "target": {
            "ip": "203.0.113.5", "domain": "a.example", "beacon_gap": 1e308}},
         "activity http-masq-cnc: intra_gap must be finite and >= 0, at "
         "most 1e+09 s"),
        ({"kind": "Flood", "target": {"ip": "203.0.113.5", "dst_port": 443,
                                      "packets_per_flow": 10 ** 400}},
         "activity flood: packets per burst must be in 1-10000"),
    ], ids=["rate-times-duration-inf", "beacon-gap-401-digits",
            "beacon-gap-1e308", "packets-per-flow-401-digits"])
    def test_number_too_large_for_the_simulator_exits_1(
            self, tmp_path, capsys, spec, reason):
        """Numbers are checked before float or int arithmetic meets them,
        so an infinite product or a 401-digit integer is one error line."""
        out = tmp_path / "t.jsonl"
        rc = main(["simulate", "--fixture", "hub", "--duration", "60",
                   "--attack", json.dumps(spec), "-o", str(out)])
        assert rc == 1
        assert_one_error_line(capsys, f"error: {reason}")
        assert not out.exists()

    def test_trace_past_the_packet_bound_exits_1(self, tmp_path, capsys):
        """The hub's bursts over 1e9 s hold about 4e8 packets; the
        simulator refuses them before it draws one."""
        out = tmp_path / "t.jsonl"
        rc = main(["simulate", "--fixture", "hub", "--duration", "1e9",
                   "-o", str(out)])
        assert rc == 1
        assert_one_error_line(capsys, "error: the bursts of 1e+09 s of this "
                              "device would hold more than 10,000,000 "
                              "packets")
        assert not out.exists()

    @pytest.mark.parametrize("duration", ["inf", "nan", "0"])
    def test_duration_out_of_range_exits_1(self, tmp_path, capsys,
                                           duration):
        out = tmp_path / "t.jsonl"
        rc = main(["simulate", "--fixture", "hub", "--duration", duration,
                   "-o", str(out)])
        assert rc == 1
        assert_one_error_line(
            capsys, "error: duration must be > 0 and at most 1e+09 s, got ")
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

    def test_profile_does_not_grow_with_the_trace(self, tmp_path):
        """The profile holds keys, not flows: an hour more of the same
        device gives the same bytes."""
        docs = []
        for duration in ("3600", "7200"):
            trace = str(tmp_path / f"t{duration}.jsonl")
            profile = tmp_path / f"p{duration}.json"
            assert main(["simulate", "--fixture", "camera", "--duration",
                         duration, "-o", trace] + SEED) == 0
            assert main(["profile", trace, "-o", str(profile)]) == 0
            docs.append(profile.read_bytes())
        assert docs[0] == docs[1] and len(docs[0]) < 2000

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

    def test_detect_reports_both_stages(self, tmp_path, capsys):
        attacks = [{"kind": "PortScan", "start": 100, "rate": 5,
                    "target": {"n_ports": 20}},
                   {"kind": "HttpMasqCnc", "start": 50, "rate": 0.05,
                    "duration": 400,
                    "target": {"domain": "api.cam-vendor.com",
                               "ip": "203.0.113.11"}}]
        trace, _, ensemble, verdicts, _ = run_pipeline(
            tmp_path, attacks, duration="600", epochs="10")
        capsys.readouterr()
        assert main(["detect", trace, ensemble, "-o", verdicts]) == 0
        m = re.fullmatch(r"judged (\d+) flows: (\d+) rejected at stage 1, "
                         r"(\d+) scored at stage 2\n",
                         capsys.readouterr().out)
        n, rejected, scored = map(int, m.groups())
        kinds = [v.kind for v in ens.read_verdicts_jsonl(verdicts)]
        assert rejected + scored == n == len(kinds)
        assert rejected == kinds.count(ens.STAGE1_MALICIOUS) >= 20
        assert scored == len(kinds) - rejected > 0

    def test_train_reports_the_flows_that_match_no_key(self, tmp_path,
                                                       capsys):
        """Training on an attacked trace trains on the flows that stage 1
        accepts and counts the others: as many as detect rejects there."""
        attacks = [{"kind": "PortScan", "start": 100, "rate": 5,
                    "target": {"n_ports": 20}}]
        trace, profile, _, _, _ = run_pipeline(tmp_path, attacks,
                                               duration="600", epochs="1")
        ensemble = str(tmp_path / "e.json")
        capsys.readouterr()
        assert main(["train", trace, profile, "--epochs", "1",
                     "-o", ensemble]) == 0
        m = re.match(r"trained (\d+) submodels on (\d+) flows; (\d+) "
                     r"flows matched no key\n", capsys.readouterr().out)
        keys, trained, unmatched = map(int, m.groups())
        assert keys == len(json.loads(Path(profile).read_text())["keys"])
        assert main(["detect", trace, ensemble, "-o",
                     str(tmp_path / "v.jsonl")]) == 0
        m = re.fullmatch(r"judged (\d+) flows: (\d+) rejected at stage 1, "
                         r"(\d+) scored at stage 2\n",
                         capsys.readouterr().out)
        assert (trained, unmatched) == (int(m[3]), int(m[2]))
        assert unmatched >= 20

    def test_train_names_each_key_whose_threshold_is_its_largest_error(
            self, tmp_path, capsys):
        """A key of n flows whose threshold rank min(n, ceil((n + 1)·q))
        is n gets a line with n and its FPR floor 1/(n + 1)."""
        trace, profile, _, _, _ = run_pipeline(tmp_path, duration="600",
                                               epochs="1")
        capsys.readouterr()
        assert main(["train", trace, profile, "--epochs", "1",
                     "-o", str(tmp_path / "e.json")]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        loaded = ct.load_profile(profile)
        sizes = [0] * len(loaded.keys)
        for matched, _ in ens.stage1(loaded, list(tm.FlowTable.read(
                trace, loaded.device_ip).flows)):
            for j in matched:
                sizes[j] += 1
        # ceil((n + 1)·0.995) >= n, in integers
        assert lines == [f"  key {j}: eps is the largest of its {n} "
                         f"training errors; FPR floor 1/{n + 1} = "
                         f"{1 / (n + 1):.4f}"
                         for j, n in enumerate(sizes)
                         if (n + 1) * 995 > (n - 1) * 1000] != []

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

    def test_unlabeled_trace_with_a_foreign_packet_names_the_packet(
            self, small_run, tmp_path, capsys):
        """eval keys the whole trace before it looks at labels, so a packet
        that cannot be keyed is the error (exit 1, its line named) ahead of
        the missing labels (exit 2)."""
        trace, _, _, verdicts, _ = small_run
        packets = [json.loads(line) for line in
                   Path(trace).read_text().splitlines()]
        for obj in packets:
            obj.pop("label", None)
        packets.append(dict(packets[-1], src_ip="10.1.1.1",
                            dst_ip="10.2.2.2"))
        stripped = tmp_path / "unlabeled.jsonl"
        stripped.write_text("".join(json.dumps(obj) + "\n"
                                    for obj in packets))
        rc = main(["eval", str(stripped), verdicts,
                   "-o", str(tmp_path / "m.json")])
        assert rc == 1
        assert_one_error_line(capsys, f"error: {stripped}:{len(packets)}: "
                              f"device ", " is neither endpoint")

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


def reweigh(model, change):
    """Set a model's weights string to the base64 of ``change`` of its
    decoded row."""
    row = np.frombuffer(base64.b64decode(model["weights"]), "<f8").copy()
    model["weights"] = base64.b64encode(change(row).tobytes()).decode()


def with_value(i, value):
    def change(row):
        row[i] = value
        return row
    return change


class TestCorruptEnsemble:
    @pytest.mark.parametrize("corrupt, names", [
        (lambda m: reweigh(m, with_value(5, math.nan)),
         "bad weights: non-finite value in weight w1"),
        (lambda m: reweigh(m, with_value(700, -math.inf)),
         "bad weights: non-finite value in weight w3"),
        (lambda m: reweigh(m, lambda row: row[:-1]),
         "weights hold 8460 base64 characters; r = 10 needs 8472"),
        (lambda m: m.__setitem__("weights", "*" + m["weights"][1:]),
         "bad weights: Only base64 data is allowed"),
        (lambda m: m.__setitem__("weights", [0.0] * 794),
         "field weights has the wrong type list"),
        (lambda m: m.__setitem__("weights", True),
         "field weights has the wrong type bool"),
        (lambda m: m.pop("weights"), "missing field weights"),
    ], ids=["nan", "minus-inf", "one-value-short", "not-base64", "json-list",
            "json-true", "no-weights"])
    def test_bad_weights_exit_1_without_traceback(self, small_run, tmp_path,
                                                  capsys, corrupt, names):
        """Each error names the submodel whose weights are bad."""
        trace, _, ensemble, _, _ = small_run
        doc = json.loads(Path(ensemble).read_text())
        assert len(doc["submodels"]) == 4
        corrupt(doc["submodels"][2]["model"])
        bad = str(tmp_path / "ensemble.json")
        Path(bad).write_text(json.dumps(doc))
        capsys.readouterr()
        rc = main(["detect", trace, bad, "-o", str(tmp_path / "v.jsonl")])
        assert rc == 1
        assert_one_error_line(capsys, f"error: {bad}: ensemble submodel 2: ",
                              names)


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
        (lambda d: d["submodels"][0]["src_port_pattern"].__setitem__(
            "kind", "range"), "unknown kind 'range'"),
        (lambda d: d["submodels"][0].__setitem__(
            "src_port_pattern", {"kind": "exact", "port": 1024}),
         "submodel 0 src_port_pattern: exact port 1024 is not a system "
         "port"),
        (lambda d: d.__setitem__("r", 65), "ensemble: r must be <= 64, got "
         "65"),
        (lambda d: d["submodels"][0].__setitem__(
            "dst_port", {"kind": "regdyn", "port": None}),
         "submodel 0: dst_port {'kind': 'regdyn'"),
        (lambda d: d["submodels"][0].__setitem__("dst_port", -1),
         "submodel 0: dst_port -1 is not an integer"),
        (lambda d: d["submodels"][0].__setitem__("dst_port", 70000),
         "submodel 0: dst_port 70000 is not an integer"),
        (lambda d: d["submodels"][0].__setitem__("dst_port", "443"),
         "submodel 0: dst_port '443' is not an integer"),
        (lambda d: d["submodels"][0].__setitem__("dst_port", True),
         "submodel 0: dst_port True is not an integer"),
        (lambda d: d["submodels"][0].pop("proto"), "missing field proto"),
        (lambda d: d.__setitem__("submodels", {}),
         "field submodels has the wrong type dict"),
        (lambda d: d.__setitem__("schema_version", "1.0"),
         "unsupported schema_version '1.0'"),
        (lambda d: d.__setitem__("schema_version", "2.0"),
         "unsupported schema_version '2.0'"),
        (lambda d: d.__setitem__("schema_version", "4.0"),
         "unsupported schema_version '4.0'"),
        (lambda d: d.__setitem__("schema_version", "5.0"),
         "unsupported schema_version '5.0'"),
        (lambda d: d.pop("local_prefixes"), "missing field local_prefixes"),
        (lambda d: d.__setitem__("local_prefixes", ["garbage"]),
         "ensemble: local_prefixes: "),
    ], ids=["epsilon-str", "epsilon-nan", "epsilon-negative", "no-device-ip",
            "no-model", "remote-kind", "port-kind", "src-exact-1024",
            "r-65", "dst-regdyn",
            "dst-negative", "dst-70000", "dst-str", "dst-bool",
            "no-proto",
            "submodels-not-list", "schema-1.0", "schema-2.0", "schema-4.0",
            "schema-5.0", "no-local-prefixes", "local-prefix-garbage"])
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
        assert_one_error_line(capsys, f"error: {bad}: ", names)

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
        assert_one_error_line(capsys, f"error: {bad}: profile key 0 "
                                      "remote_pattern: unknown kind 'anycast'")


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
        """Cut after the first model, outside any string: the parse stops
        where the file ends."""
        trace, _, ensemble, _, _ = small_run
        bad = str(tmp_path / "ensemble.json")
        text = Path(ensemble).read_bytes()
        cut = text.index(b', "epsilon"')
        Path(bad).write_bytes(text[:cut])
        capsys.readouterr()
        rc = main(["detect", trace, bad, "-o", str(tmp_path / "v.jsonl")])
        assert rc == 1
        assert_one_error_line(capsys, f"error: {bad}: ", f"(char {cut})")


class TestBadOptionValues:
    """Each option value is checked before any file is read, by the CLI
    itself, the architecture class or ipaddress; a bad one is a usage
    error that names the flag."""

    @pytest.mark.parametrize("option, reason", [
        (["--quantile", "1.5"], "quantile must be in (0,1), got 1.5"),
        (["--r", "0"], "r must be >= 3, the kernel size, got 0"),
        (["--epochs", "0"], "epochs must be >= 1, got 0"),
        (["--r", "65"], "r must be <= 64, got 65"),
        (["--r", "1000000000000"], "r must be <= 64, got 1000000000000"),
        (["--seed", "-5"], "seed must be >= 0, got -5"),
    ], ids=["quantile", "r", "epochs", "r-65", "r-1e12", "seed"])
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
        ("train", ["--r", "65"], "r must be <= 64, got 65"),
        ("train", ["--seed", "-5"], "seed must be >= 0, got -5"),
        ("profile", ["--h-s", "2"], "h_s must be in [0,1], got 2.0"),
    ], ids=["1", "2", "quantile", "epochs", "65", "seed", "profile-h-s"])
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

    @pytest.mark.parametrize("source", [["--fixture", "plug"],
                                        ["--spec", "missing.json"]],
                             ids=["fixture", "spec"])
    def test_simulate_negative_seed_exits_2_before_any_file(
            self, tmp_path, capsys, monkeypatch, source):
        """numpy takes no negative seed; the spec file is not read."""
        monkeypatch.chdir(tmp_path)
        rc = main(["simulate", *source, "--duration", "60", "--seed", "-1",
                   "-o", "t.jsonl"])
        assert rc == 2
        assert_one_error_line(capsys, "error: --seed: seed must be >= 0, "
                              "got -1")
        assert list(tmp_path.iterdir()) == []

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
        assert_one_error_line(capsys, f"error: {path}: {reason}")

    @pytest.mark.parametrize("field, value, reason", [
        ("size_probs", [1.5, -0.5], "probabilities must be >= 0"),
        ("size_probs", [math.nan, 0.5], "probabilities must be >= 0"),
        ("sizes", [0, 200], "size 0 is not in 1-65535"),
        ("sizes", [100, 70000], "size 70000 is not in 1-65535"),
        ("jitter", -1.0, "jitter must be finite and >= 0"),
        ("intra_gap", -5.0, "intra_gap must be finite and >= 0"),
        ("period", math.nan, "period must be > 0"),
        ("period", 10 ** 400, "period must be > 0"),
        ("intra_gap", 10 ** 400, "intra_gap must be finite and >= 0"),
        ("size_probs", [10 ** 400, 0.5], "probabilities must be >= 0"),
        ("jitter", 1e308, "jitter must be finite and >= 0, at most 1e+09 s"),
        ("packets_per_burst", 0, "packets per burst must be in 1-10000"),
        ("packets_per_burst", 10 ** 400,
         "packets per burst must be in 1-10000"),
    ], ids=["negative-prob", "nan-prob", "size-0", "size-70000",
            "negative-jitter", "negative-gap", "nan-period",
            "period-401-digits", "gap-401-digits", "prob-401-digits",
            "jitter-1e308", "no-packet-per-burst",
            "packets-per-burst-401-digits"])
    def test_activity_the_simulator_cannot_draw_exits_1(
            self, tmp_path, capsys, field, value, reason):
        activity = dict(self.ACTIVITY, sizes=[100, 200],
                        size_probs=[0.5, 0.5])
        activity[field] = value
        rc, path = self.simulate(tmp_path, json.dumps(
            {"device_ip": "10.0.0.5", "activities": [activity]}))
        assert rc == 1
        assert_one_error_line(capsys, f"error: {path}: activity a: {reason}")
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

    @pytest.mark.parametrize("doc, atk, rc, reason", [
        ({"device_ip": "10.0.0.5", "activities": [
            dict(ACTIVITY, note="not read")]},
         {"kind": "PortScan"}, 1, "spec.json: activity 0: unknown field "
         "'note'"),
        ({"device_ip": "10.0.0.5", "note": "not read",
          "activities": [ACTIVITY]},
         {"kind": "PortScan"}, 1, "spec.json: spec: unknown field 'note'"),
        ({"device_ip": "10.0.0.5", "activities": [ACTIVITY]},
         {"kind": "PortScan", "note": "not read"}, 2,
         "--attack: spec: unknown field 'note'"),
        ({"device_ip": "10.0.0.5", "activities": [ACTIVITY]},
         {"kind": "PortScan", "target": {"n_port": 5}}, 2,
         "--attack: target: unknown field 'n_port'"),
    ], ids=["activity", "spec", "attack", "target"])
    def test_unknown_attack_and_spec_fields_exit_naming_the_field(
            self, tmp_path, capsys, doc, atk, rc, reason):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        out = tmp_path / "t.jsonl"
        assert main(["simulate", "--spec", str(spec), "--duration", "120",
                     "--attack", json.dumps(atk), "-o", str(out)]) == rc
        assert_one_error_line(capsys, "error: ", reason)
        assert not out.exists()

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


def test_main_builds_one_parser_and_no_value_outlives_its_call(
        tmp_path, monkeypatch):
    """main parses with one parser per process; an ``append`` option of
    one call is absent from the next call's arguments."""
    calls = []
    parse_args = argparse.ArgumentParser.parse_args
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args",
                        lambda self, *a: calls.append(
                            (self, parse_args(self, *a))) or calls[-1][1])
    attacked, clean = str(tmp_path / "a.jsonl"), str(tmp_path / "c.jsonl")
    atk = json.dumps({"kind": "PortScan", "start": 5,
                      "target": {"n_ports": 5}})
    simulate = ["simulate", "--fixture", "hub", "--duration", "120"] + SEED
    assert main(simulate + ["--attack", atk, "-o", attacked]) == 0
    assert main(simulate + ["-o", clean]) == 0
    assert main(["profile", clean, "--local-prefix", "192.168.1.0/24",
                 "-o", str(tmp_path / "lan.json")]) == 0
    assert main(["profile", clean, "-o", str(tmp_path / "p.json")]) == 0

    assert len({id(parser) for parser, _ in calls}) == 1 and len(calls) == 4
    assert [args.attack for _, args in calls[:2]] == [[atk], None]
    assert [args.local_prefix for _, args in calls[2:]] == [
        ["192.168.1.0/24"], None]
    manifest = json.loads(Path(clean + ".manifest.json").read_text())
    assert list(manifest["label_counts"]) == ["benign"]
    profile = json.loads((tmp_path / "p.json").read_text())
    assert profile["local_prefixes"] == []


SETTABLE = [
    "simulate.fixture", "simulate.spec", "simulate.duration", "simulate.seed",
    "simulate.attack", "simulate.out",
    "profile.out", "profile.local_prefix", "profile.device_ip",
    "profile.h_s",
    "train.out", "train.r", "train.quantile", "train.seed", "train.epochs",
    "detect.out", "detect.dump_features",
    "eval.out", "eval.local_prefix",
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
    assert len(SETTABLE) == 20


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

    @pytest.mark.parametrize("case", ["second", "not-in-trace", "first"])
    def test_verdict_that_cannot_be_joined_names_its_line_on_a_pipe(
            self, small_run, lines, tmp_path, capsys, case):
        """eval joins each verdict as it reads it, so a second verdict for
        a flow, or a verdict for a flow not in the trace, the first one
        too, is named at its line though a pipe cannot be read again."""
        trace = small_run[0]
        foreign = edited(json.loads(lines[2]), ["flow_key", "dst_port"], 9)
        text, line, verdict, problem = {
            "second": (lines + [lines[3]], len(lines) + 1, lines[3],
                       "was judged on an earlier line; this is a second "
                       "verdict for it"),
            "not-in-trace": ([lines[0], "", foreign, *lines[1:]], 3, foreign,
                             f"is not in {trace}; eval keys the trace"),
            "first": (["", foreign, *lines], 2, foreign,
                      f"is not in {trace}; eval keys the trace"),
        }[case]
        flow = ens.verdict_from_dict(json.loads(verdict)).flow
        capsys.readouterr()
        with piped("\n".join(text) + "\n") as path:
            rc = main(["eval", trace, path, "-o", str(tmp_path / "m.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:{line}: flow {flow} {problem}")
        assert err.count("\n") == 1
        assert not (tmp_path / "m.json").exists()


class TestMalformedTrace:
    GOOD = json.dumps({"ts": 1.0, "src_ip": "192.168.1.10",
                       "dst_ip": "203.0.113.5", "src_port": 40000,
                       "dst_port": 443, "proto": "TCP", "length": 60})

    @pytest.mark.parametrize("line, reason", [
        (GOOD[:40], "Unterminated string"),
        ("[1, 2]", "not a JSON object"),
        (GOOD + " {}", "data after the JSON object"),
        (GOOD.replace("40000", "70000"),
         "packet: src_port 70000 is not an integer in 0-65535"),
        (GOOD.replace("1.0", '"noon"'), "packet: field ts has the wrong type"),
        (GOOD.replace(', "proto": "TCP"', ""), "packet: missing field proto"),
        (GOOD.replace("}", ', "bogus": 1}'), "packet: unknown field 'bogus'"),
        (GOOD.replace("60", "99.9"),
         "packet: field length has the wrong type float"),
        (GOOD.replace("40000", "true"),
         "packet: src_port True is not an integer in 0-65535"),
        (GOOD.replace("443", '"443"'),
         "packet: dst_port '443' is not an integer in 0-65535"),
        (GOOD.replace('"192.168.1.10"', "5"),
         "packet: field src_ip has the wrong type int"),
    ], ids=["truncated", "not-object", "trailing-data", "port-70000",
            "non-numeric-ts", "missing-field", "unknown-field", "float-length",
            "bool-port", "string-port", "int-address"])
    def test_bad_line_exits_1_naming_path_and_line(self, tmp_path, capsys,
                                                   line, reason):
        trace = str(tmp_path / "t.jsonl")
        with open(trace, "w") as fh:
            fh.write(f"{self.GOOD}\n\n{line}\n{self.GOOD}\n")
        rc = main(["profile", trace, "-o", str(tmp_path / "p.json")])
        assert rc == 1
        assert_one_error_line(capsys, f"{trace}:3: ", reason)

    @pytest.mark.parametrize("edit, reason", [
        (lambda line: line.replace("203.0.113.5", "203.0.113.999"),
         "not an IPv4 address: '203.0.113.999'"),
        (lambda line: line.replace("192.168.1.10", "192.168.1.77"),
         "device 192.168.1.10 is neither endpoint of 192.168.1.77->"),
    ], ids=["malformed-address", "foreign-packet"])
    def test_packet_that_cannot_be_keyed_names_path_and_line(
            self, tmp_path, capsys, edit, reason):
        trace = str(tmp_path / "t.jsonl")
        with open(trace, "w") as fh:
            fh.write(f"{self.GOOD}\n\n{edit(self.GOOD)}\n{self.GOOD}\n")
        rc = main(["profile", trace, "--device-ip", "192.168.1.10",
                   "-o", str(tmp_path / "p.json")])
        assert rc == 1
        assert_one_error_line(capsys, f"error: {trace}:3: {reason}")

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

    @pytest.mark.parametrize("separators", [(", ", ": "), (",", ":")],
                             ids=["writer-form", "other-spacing"])
    def test_detect_names_the_line_that_eval_names(
            self, small_run, tmp_path, capsys, separators):
        """detect keeps a flow's first r (ts, length) pairs, eval none;
        a late packet after 20 of its flow's, in the writer's
        form (the reader's fast path) or not (the JSON parse), is on the
        same line to both, counted over every packet before it."""
        _, _, ensemble, verdicts, _ = small_run
        device_ip = json.loads(Path(ensemble).read_text())["device_ip"]

        def line(ts, port, seps=(", ", ": ")):
            return json.dumps({
                "ts": ts, "src_ip": device_ip, "dst_ip": "203.0.113.5",
                "src_port": port, "dst_port": 443, "proto": "TCP",
                "length": 60, "label": "benign"}, separators=seps)

        lines = [line(float(i), 40000 + i % 2 * 7) for i in range(40)]
        lines += ["", line(37.5, 40007, separators)]
        bad = str(tmp_path / "bad.jsonl")
        Path(bad).write_text("\n".join(lines) + "\n")
        errors = []
        for stage, artifact in (("detect", ensemble), ("eval", verdicts)):
            capsys.readouterr()
            assert main([stage, bad, artifact, "-o",
                         str(tmp_path / "out")]) == 1
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0].startswith(f"error: {bad}:42: flow TCP ")

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


@contextlib.contextmanager
def piped(text: str):
    """The /dev/fd path of a pipe that holds ``text`` and whose write end
    is closed, as a shell's ``<(cat trace)`` gives; ``text`` fits the
    pipe's 64 KiB buffer, so no thread need write it."""
    data = text.encode()
    assert len(data) < 65536
    read, write = os.pipe()
    with os.fdopen(write, "wb") as fh:
        fh.write(data)
    try:
        yield f"/dev/fd/{read}"
    finally:
        os.close(read)


class TestPipedTrace:
    """A trace on a pipe cannot be read again, so a stage that keys as it
    reads names a refused packet's line as the reader finds it."""

    @pytest.mark.parametrize("stage", ["train", "detect", "eval"])
    @pytest.mark.parametrize("bad, reason", [
        (dict(ts=150.5, src_port=40007),
         "flow TCP {device}:40007 <-> remote_ip 203.0.113.5:443: packet at "
         "ts 150.5 is earlier than the flow's last packet at ts 199.0"),
        (dict(ts=200.0, dst_ip="203.0.113.999", separators=(",", ":")),
         "not an IPv4 address: '203.0.113.999'"),
    ], ids=["late-in-writer-form", "address-in-other-spacing"])
    def test_refused_packet_names_its_line(self, small_run, tmp_path,
                                           capsys, stage, bad, reason):
        """200 packets of two flows, a blank line, then line 202: a late
        packet that the reader's fast path reads, or an address that is
        not IPv4 on a line that only the JSON parse reads."""
        _, profile, ensemble, verdicts, _ = small_run
        device = json.loads(Path(ensemble).read_text())["device_ip"]

        def line(ts, src_port=40000, dst_ip="203.0.113.5",
                 separators=(", ", ": ")):
            return json.dumps({
                "ts": ts, "src_ip": device, "dst_ip": dst_ip,
                "src_port": src_port, "dst_port": 443, "proto": "TCP",
                "length": 60, "label": "benign"}, separators=separators)

        lines = [line(float(i), 40000 + i % 2 * 7) for i in range(200)]
        text = "\n".join([*lines, "", line(**bad)]) + "\n"
        args = {"train": [profile, "--epochs", "1"], "detect": [ensemble],
                "eval": [verdicts]}[stage]
        capsys.readouterr()
        with piped(text) as path:
            rc = main([stage, path, *args, "-o", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == \
            f"error: {path}:202: {reason.format(device=device)}\n"
        assert not (tmp_path / "out").exists()


class TestBoundedMemory:
    """train and detect hold a flow as a record of its first r packets'
    (ts, length) pairs, and load no more of numpy than they use: counted,
    not timed."""

    @pytest.fixture(scope="class")
    def flooded(self, tmp_path_factory):
        flood = {"kind": "Flood", "start": 100, "rate": 1, "duration": 100,
                 "target": {"ip": "203.0.113.10", "dst_port": 443,
                            "domain": "upload.cam-vendor.com"}}
        return run_pipeline(tmp_path_factory.mktemp("flood"), [flood],
                            duration="600", epochs="1")

    def test_detect_holds_r_pairs_a_flow(self, flooded, tmp_path,
                                         monkeypatch):
        trace, _, ensemble, _, _ = flooded
        tables = []
        judge = ens.detect_flows

        def spy(ensemble, keys, table):
            tables.append(table)
            return judge(ensemble, keys, table)
        monkeypatch.setattr(ens, "detect_flows", spy)
        assert main(["detect", trace, ensemble,
                     "-o", str(tmp_path / "v.jsonl")]) == 0
        loaded = ens.load_ensemble(ensemble)
        full = tm.flows_of_trace(tm.read_packets_jsonl(trace),
                                 loaded.profile.device_ip)[1]
        (table,) = tables
        assert list(table) == list(full)
        assert sum(flow[tm.COUNT] == 40 for flow in table.values()) == 100
        assert max(map(len, table.values())) == tm.PAIRS + 2 * loaded.arch.r

    def test_train_and_detect_leave_numpy_ma_unloaded(self, flooded,
                                                      tmp_path):
        """A fresh interpreter runs train, then detect."""
        trace, profile, _, _, _ = flooded
        ensemble = str(tmp_path / "e.json")
        code = textwrap.dedent(f"""\
            import sys
            from atrellis.cli import main
            assert main(["train", {trace!r}, {profile!r}, "--epochs", "1",
                         "-o", {ensemble!r}]) == 0
            assert main(["detect", {trace!r}, {ensemble!r},
                         "-o", {str(tmp_path / "v.jsonl")!r}]) == 0
            print("numpy.ma" in sys.modules, file=sys.stderr)
            """)
        src = str(Path(tm.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stderr == "False\n"


class TestPinnedBytes:
    """The bytes of a camera trace, of its profile and of a camera trace
    with every attack kind, as the code wrote them when these digests were
    taken.  No BLAS arithmetic runs up to the profile, so they hold on any
    host; a change that moves a byte in simulate, parse, flow keying or
    profile fails here and has to say why its bytes differ."""

    TRACE_SHA256 = ("42a7f1153b86bbc7b7d12e949a55c0f0"
                    "4d53c256dc6f9d372718f74d9b96679b")
    PROFILE_SHA256 = ("8b04c7e2c50242aee41154fe1e7d7acf"
                      "9a58830ab237256585590705c3169ba5")

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
