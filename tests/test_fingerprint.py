"""Output fingerprint: SHA-256 digests of what ``discover`` (all three
algorithms) and ``evaluate`` write, on MNAR-amputed ec-demo (``dataset_n``
300, the bundled knowledge, B=3, ``--threads 2``, seed 11), and of the
``repr`` of every float in the ``evaluate`` report.

Criterion 8 compares reruns with each other, so a change that moves every
output the same way passes it; this test holds the outputs themselves. A
change that moves them by design (or a numpy or Python upgrade) re-records
the digests with

    PYTHONPATH=src python3 tests/test_fingerprint.py

which prints the ``DIGESTS`` literal to paste below, and says in
CHANGES.md why they moved and which graphs changed.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from missdag import ecdemo
from missdag.cli import main
from missdag.discovery import ALGORITHMS

from oracles import amputation_spec_json

DIGESTS = {
    'discover hc-complete': 'f68a5608977b97edbb8a2c34fe150419917ea28ba92ba4ba33bafbbc500ab3ba',
    'discover bootstrap-sem': 'f165ad3791b5cbc7d748b6e28272efd1bf14e81400f6288033ce41f0e0b352f5',
    'discover hc-aipw': 'fa7db04b79a0590a0fb84e3f758a32fbfbe4cf981870f4f7c00e7b71e9cf425b',
    'evaluate': '6c20d6b46f67992f959320bea36b9142cb14310f6a42c08ae2dd53d3f4379555',
    'evaluate floats': '7fb169223ba1c8e4d439309eea497efe0a2b259ab1486665f9b8e7f17e9b6db8',
}


def _tree_digest(out: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(out.iterdir()):
        data = p.read_bytes()
        h.update(f"{p.name}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def _floats(doc):
    if isinstance(doc, float):
        yield doc
    elif isinstance(doc, dict):
        for key in sorted(doc):
            yield from _floats(doc[key])
    elif isinstance(doc, list):
        for value in doc:
            yield from _floats(value)


def fingerprint(tmp: Path) -> dict:
    """The digests of the runs above, written under ``tmp``."""
    spec, kb = tmp / "spec.json", tmp / "kb.json"
    spec.write_text(amputation_spec_json(ecdemo.ec_mnar_amputation(seed=11)))
    kb.write_text(ecdemo.ec_knowledge_json())
    base = {"dataset": "ec-demo", "dataset_n": 300, "ampute_spec": str(spec),
            "knowledge": str(kb), "B": 3}

    def run(command, name, **fields):
        cfg, out = tmp / f"{name}.json", tmp / name
        cfg.write_text(json.dumps(dict(base, **fields)) + "\n")
        assert main([command, "--config", str(cfg), "--seed", "11",
                     "--out", str(out), "--threads", "2"]) == 0
        return out

    digests = {f"discover {a}": _tree_digest(run("discover", a, algorithm=a))
               for a in ALGORITHMS}
    out = run("evaluate", "evaluate", algorithms=list(ALGORITHMS))
    digests["evaluate"] = _tree_digest(out)
    report = json.loads((out / "report.json").read_text())
    digests["evaluate floats"] = hashlib.sha256(
        "\n".join(map(repr, _floats(report))).encode()).hexdigest()
    return digests


def test_outputs_match_the_recorded_digests(tmp_path, monkeypatch):
    monkeypatch.delenv("MGD_SEED", raising=False)
    assert fingerprint(tmp_path) == DIGESTS


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        got = fingerprint(Path(tmp))
    sys.stdout.write("DIGESTS = {\n" + "".join(
        f"    {k!r}: {v!r},\n" for k, v in got.items()) + "}\n")
