"""Self-tests of the benchmark harness.

    python3 -m pytest bench/test_harness.py -q
"""

import json
import os
import re
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import spans  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _last_json(text):
    return json.loads(text.strip().splitlines()[-1])


def _tiny_run(monkeypatch, capsys, expected):
    monkeypatch.setitem(run.WORKLOADS, "cli-sweep",
                        ("fresh", [["validate", "flat_r2"]]))
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    code = run.main(["--workload", "cli-sweep", "--seed", "1",
                     "--seconds", "0", "--trace", "0"], expected=expected)
    return code, _last_json(capsys.readouterr().out)


def test_corrupted_digest_fails_the_run(monkeypatch, capsys):
    expected = run.load_expected()
    code, result = _tiny_run(monkeypatch, capsys, expected)
    assert code == 0
    assert result["failed"] == 0 and result["correct"] is True
    assert result["metrics"]["ok_rate"]["value"] == 1.0

    corrupted = dict(expected)
    entry = dict(corrupted["validate flat_r2"])
    entry["sha256"] = "0" * 64
    corrupted["validate flat_r2"] = entry
    code, result = _tiny_run(monkeypatch, capsys, corrupted)
    assert code != 0
    assert result["failed"] == 1 and result["correct"] is False
    assert result["metrics"]["ok_rate"]["value"] == 0.0


def _command(template, code, stdout=b"", stderr=b""):
    return run.Command(template, 7, code, stdout, stderr, 0.1)


def test_known_defect_and_its_fix_both_pass_the_gate():
    expected = run.load_expected()
    template = ["chern", "flat_r2", "--order", "0"]
    defect = _command(template, 1,
                      stderr=b"Traceback (most recent call last):\n...")
    run.judge(defect, expected)
    assert defect.verdict == "known_defect"
    fixed = _command(template, 2, stderr=b"error: order must be at least 1")
    run.judge(fixed, expected)
    assert fixed.verdict == "ok"
    other = _command(template, 0)
    run.judge(other, expected)
    assert other.verdict == "failed"


def test_seed_echo_is_normalised_before_digesting():
    template = ["second-fundamental", "heis_j", "--seed", run.SEED]
    a = run.Command(template, 3, 0, b'{\n  "seed": 3,\n}\n', b"", 0.1)
    b = run.Command(template, 41, 0, b'{\n  "seed": 41,\n}\n', b"", 0.1)
    assert a.digest() == b.digest()


def _bindings():
    import algebroids.cli  # noqa: F401
    from algebroids.scalars import Scalar

    table = {}
    for key, module in sys.modules.items():
        if key == "algebroids" or key.startswith("algebroids."):
            for attr, value in vars(module).items():
                table[(key, attr)] = value
    table[("Scalar", "__init__")] = Scalar.__dict__["__init__"]
    table[("Scalar", "norm_expr")] = Scalar.__dict__["norm_expr"]
    return table


def test_wrappers_cover_every_binding_and_are_restored():
    before = _bindings()
    originals = {getattr(sys.modules[m], a) for m, a, _ in spans.FUNCTIONS}
    tracer = spans.Tracer()
    tracer.install()
    try:
        during = _bindings()
        import algebroids.cli as cli
        import algebroids.prodgeom as prodgeom
        assert cli.levi_civita is prodgeom.levi_civita
        assert cli.levi_civita is not before[("algebroids.cli", "levi_civita")]
        assert not [k for k, v in during.items()
                    if any(v is o for o in originals)]
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_self_times_stay_within_the_traced_wall(capsys):
    import algebroids.cli as cli

    tracer = spans.Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        assert cli.main(["identity-suite", "heis_j"]) == 0
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    capsys.readouterr()
    total = sum(tracer.self_s.values())
    assert 0 < total <= wall
    assert all(s >= 0 for s in tracer.self_s.values())
    by_index = {i: span for i, span in enumerate(tracer.spans)}
    suite = [i for i, s in by_index.items() if s[0] == "prodgeom.identity_suite"]
    nested = [s for s in tracer.spans
              if s[0] == "connections.levi_civita" and s[3] in suite]
    assert suite and nested
    for name, start_s, end_s, parent in tracer.spans:
        if parent >= 0:
            assert by_index[parent][1] <= start_s <= end_s <= by_index[parent][2]


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = ([w["name"] for w in bench["workloads"]]
             + [m["name"] for m in bench["end_to_end"]]
             + [m["name"] for m in bench["per_layer"]])
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert ({m["name"]: m["unit"] for m in bench["per_layer"]}
            == run.per_layer_units())

