"""An end-to-end property oracle over generated devices: random device
specs go through simulate, profile, train and detect by ``cli.main``, and
the invariants that hold for every device are checked on what they
write."""

import contextlib
import io
import ipaddress
import json
import tempfile
from collections import Counter
from pathlib import Path

from hypothesis import given, settings, strategies as st

from atrellis.cli import main

DEVICE = "192.168.1.10"
LAN = "192.168.1.0/24"
PUBLIC_PEERS = ["203.0.113.10", "203.0.113.11", "198.51.100.7"]
LAN_PEERS = ["192.168.1.20", "192.168.1.30", "192.168.1.255"]
MULTICAST_PEERS = ["239.255.255.250", "224.0.0.251", "255.255.255.255"]
# names that share their last two labels, or more, or none
DOMAINS = ["api.vendor.com", "cdn.vendor.com", "vendor.com",
           "eu.api.vendor.com", "Vendor.COM.", "time.example.net",
           "pool.example.net", "a.b.vendor.org", "solo"]
# ports on both sides of 1024 and of 49152
PORTS = [1, 53, 80, 123, 443, 1023, 1024, 1900, 8883, 49151, 49152, 65535]
SIZES = [60, 70, 100, 300, 310, 512, 1024, 1400]
DURATION = 600


@st.composite
def activities(draw, index):
    sizes = draw(st.lists(st.sampled_from(SIZES), min_size=1, max_size=3,
                          unique=True))
    activity = {
        "name": f"a{index}",
        "remote_ip": draw(st.sampled_from(PUBLIC_PEERS + LAN_PEERS
                                          + MULTICAST_PEERS)),
        "dst_port": draw(st.sampled_from(PORTS)),
        "proto": draw(st.sampled_from(["TCP", "UDP"])),
        "period": draw(st.sampled_from([20.0, 30.0, 45.0, 90.0])),
        "sizes": sizes,
        "size_probs": [1 / len(sizes)] * len(sizes),
        "packets_per_burst": draw(st.integers(1, 12)),
        "bidirectional": draw(st.booleans()),
    }
    domain = draw(st.none() | st.sampled_from(DOMAINS))
    if domain is not None:
        activity["domain"] = domain
    return activity


@st.composite
def devices(draw):
    """A device spec of 1-8 activities, whether flows are keyed with the
    LAN prefix, the seed, the epochs, an optional port scan in the judged
    trace, and whether the run is made twice."""
    n = draw(st.integers(1, 8))
    spec = {"device_ip": DEVICE,
            "activities": [draw(activities(i)) for i in range(n)]}
    scan = draw(st.none() | st.integers(1, 30))
    return {"spec": spec, "lan": draw(st.booleans()),
            "seed": draw(st.integers(0, 1000)),
            "epochs": draw(st.integers(2, 5)), "scan": scan,
            "twice": draw(st.integers(0, 3)) == 0}


def run(argv):
    """``main(argv)``'s exit code and its standard error; the exit code
    is 0, or 1 or 2 with one ``error:`` line, and never a traceback."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    text = err.getvalue()
    if rc == 0:
        assert text == ""
    else:
        assert rc in (1, 2), (argv, rc, text)
        assert text.startswith("error: ") and text.count("\n") == 1, text
    return rc


def pipeline(d: Path, case):
    """simulate a training and a judged trace, profile and train on the
    first, and judge both.  Returns the directory if every stage exits 0,
    else None."""
    spec = d / "spec.json"
    spec.write_text(json.dumps(case["spec"]))
    seed = case["seed"]
    prefix = ["--local-prefix", LAN] if case["lan"] else []
    attack = []
    if case["scan"] is not None:
        attack = ["--attack", json.dumps({
            "kind": "PortScan", "start": 10, "rate": 5,
            "target": {"ip": "198.51.100.99", "n_ports": case["scan"]}})]
    stages = [
        ["simulate", "--spec", str(spec), "--duration", str(DURATION),
         "--seed", str(seed), "-o", str(d / "train.jsonl")],
        ["simulate", "--spec", str(spec), "--duration", str(DURATION),
         "--seed", str(seed + 1), *attack, "-o", str(d / "judged.jsonl")],
        ["profile", str(d / "train.jsonl"), "--device-ip", DEVICE, *prefix,
         "-o", str(d / "profile.json")],
        ["train", str(d / "train.jsonl"), str(d / "profile.json"),
         "--epochs", str(case["epochs"]), "--seed", str(seed),
         "-o", str(d / "ensemble.json")],
        ["detect", str(d / "judged.jsonl"), str(d / "ensemble.json"),
         "-o", str(d / "verdicts.jsonl")],
        ["detect", str(d / "train.jsonl"), str(d / "ensemble.json"),
         "-o", str(d / "train_verdicts.jsonl")],
    ]
    for argv in stages:
        if run(argv) != 0:
            return None
    return d


def is_bc_mc(ip: str, lan: bool) -> bool:
    addr = ipaddress.IPv4Address(ip)
    return addr.is_multicast or ip == "255.255.255.255" or (
        lan and addr == ipaddress.IPv4Network(LAN).broadcast_address)


def trace_flows(path: Path, lan: bool) -> set:
    """The flows of a trace, computed without the program: the
    device-oriented 5-tuple, its remote named by the packet's resolved
    domain unless the address is broadcast or multicast."""
    flows = set()
    for line in path.read_text().splitlines():
        p = json.loads(line)
        if p["src_ip"] == DEVICE:
            ip, device_port, remote_port = (p["dst_ip"], p["src_port"],
                                            p["dst_port"])
        else:
            ip, device_port, remote_port = (p["src_ip"], p["dst_port"],
                                            p["src_port"])
        name = p.get("dns_name")
        remote = ip if is_bc_mc(ip, lan) or not name \
            else name.lower().rstrip(".")
        flows.add((p["proto"], remote, device_port, remote_port))
    return flows


def verdicts_of(path: Path) -> list:
    return [json.loads(line) for line in path.read_text().splitlines()]


def flow_of(verdict) -> tuple:
    f = verdict["flow_key"]
    return f["proto"], f["remote"]["value"], f["src_port"], f["dst_port"]


ARTIFACTS = ["train.jsonl", "judged.jsonl", "profile.json", "ensemble.json",
             "verdicts.jsonl", "train_verdicts.jsonl"]


@settings(max_examples=40, deadline=None)
@given(case=devices())
def test_generated_devices_keep_the_pipeline_invariants(case):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "1"), Path(tmp, "2")
        first.mkdir()
        if pipeline(first, case) is None:
            return
        judged = verdicts_of(first / "verdicts.jsonl")
        counts = Counter(map(flow_of, judged))
        assert set(counts) == trace_flows(first / "judged.jsonl",
                                          case["lan"])
        assert set(counts.values()) == {1}
        training = verdicts_of(first / "train_verdicts.jsonl")
        assert len(training) == len(trace_flows(first / "train.jsonl",
                                                case["lan"]))
        assert [v for v in training if v["kind"] == "stage1_malicious"] \
            == []
        if case["twice"]:
            second.mkdir()
            assert pipeline(second, case) is not None
            for name in ARTIFACTS:
                assert (first / name).read_bytes() == \
                    (second / name).read_bytes(), name
