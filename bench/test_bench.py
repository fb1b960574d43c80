"""Tests of the benchmark's own helpers.

Run from the repository root with ``python3 -m pytest -q bench``.
"""

import logging
import os
import sys
import types
from contextlib import ExitStack
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402

run.load_program()


@pytest.mark.parametrize(
    "n, index, percentile",
    [
        (100, 89, 90.0),  # exactly ten beyond the 90th percentile
        (300, 269, 90.0),  # plenty of rounds: stays at the 90th
        (50, 39, 80.0),  # too few for p90: moves down to keep ten beyond
        (11, 0, 100.0 / 11),
    ],
)
def test_tail_rank_keeps_ten_samples_beyond(n, index, percentile):
    assert run.tail_rank(n) == (index, pytest.approx(percentile))
    assert n - 1 - index >= run.TAIL_BEYOND


def test_tail_rank_rejects_too_few_samples():
    with pytest.raises(ValueError):
        run.tail_rank(run.TAIL_BEYOND)


def test_covered_ns_merges_overlaps_and_clips():
    assert tracing.covered_ns([], 0, 10) == 0
    assert tracing.covered_ns([(2, 4), (3, 6), (8, 9)], 0, 10) == 5
    assert tracing.covered_ns([(-5, 2), (9, 20)], 0, 10) == 3
    assert tracing.covered_ns([(12, 20)], 0, 10) == 0


def test_self_times_subtract_direct_children_only():
    spans = [
        (0, "root", None, 0, 100),
        (1, "mid", 0, 10, 60),
        (2, "leaf", 1, 20, 30),
        (3, "leaf", 0, 70, 80),
        (4, "mid", 1, 40, 50),  # a layer nested in itself
    ]
    assert tracing.self_times(spans) == {"root": 40, "mid": 40, "leaf": 20}
    total = sum(end - start for _, _, parent, start, end in spans if parent is None)
    assert sum(tracing.self_times(spans).values()) == total


def test_tracer_records_parents_and_survives_errors():
    tracer = tracing.Tracer()

    def fail():
        raise RuntimeError("boom")

    inner = tracer.wrap("inner", lambda x: x + 1)
    failing = tracer.wrap("fail", fail)

    def outer_body():
        inner(1)
        with pytest.raises(RuntimeError):
            failing()
        return inner(2)

    assert tracer.wrap("outer", outer_body)() == 3
    by_layer = {}
    for span_id, layer, parent, start, end in tracer.spans:
        by_layer.setdefault(layer, []).append((span_id, parent))
        assert start <= end
    (outer_id, outer_parent), = by_layer["outer"]
    assert outer_parent is None
    assert [parent for _, parent in by_layer["inner"]] == [outer_id, outer_id]
    assert by_layer["fail"][0][1] == outer_id
    assert tracer.calls() == {"inner": 2, "fail": 1, "outer": 1}


def test_patch_restores_module_and_class_attributes():
    module = types.ModuleType("fake")
    module.fn = original_fn = lambda: "module"

    class Owner:
        def method(self):
            return "class"

    original_method = vars(Owner)["method"]
    with pytest.raises(RuntimeError):
        with ExitStack() as stack:
            tracing.patch(stack, module, "fn", lambda: "patched")
            tracing.patch(stack, Owner, "method", lambda self: "patched")
            assert module.fn() == "patched" and Owner().method() == "patched"
            raise RuntimeError("restore on error too")
    assert module.fn is original_fn
    assert vars(Owner)["method"] is original_method
    with ExitStack() as stack, pytest.raises(KeyError):
        tracing.patch(stack, module, "renamed", lambda: None)


def _wrapped_names():
    from skewcal import gns, harness, linalg, qinfo

    modules = {"harness": harness, "linalg": linalg, "qinfo": qinfo, "gns": gns}
    names = [(modules[m], name) for m, name, _ in tracing.TARGETS]
    names += [(modules[m], "tilde_transform") for m in tracing.TILDE_CALLERS]
    names += [
        (gns, "h_from_measure"),
        (linalg.DensityMatrix, "to_eigenbasis"),
        (harness, "json"),
        (harness, "csv"),
    ]
    return names


def test_traced_restores_every_program_name():
    names = _wrapped_names()
    before = [vars(owner)[name] for owner, name in names]
    logger = logging.getLogger("skewcal.monotone")
    level, handlers = logger.level, list(logger.handlers)
    with pytest.raises(RuntimeError):
        with tracing.traced(tracing.Tracer()):
            assert all(vars(o)[n] is not b for (o, n), b in zip(names, before))
            raise RuntimeError("restore on error too")
    assert all(vars(o)[n] is b for (o, n), b in zip(names, before))
    assert logger.level == level and logger.handlers == handlers


def test_traced_sweep_counts_calls_per_layer(tmp_path):
    from skewcal.harness import SweepConfig, run_sweep

    keys = ("wyd:0.5", "sld")
    config = SweepConfig(
        dims=(3,), trials=2, f_specs=keys, gns_audit=True,
        output_path=str(tmp_path / "out.csv"), format="csv",
    )
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        tracer.wrap("harness.loop", run_sweep)(config)
    calls = tracer.calls()
    instances, records = 2, 4
    assert calls["harness.loop"] == 1
    assert calls["linalg.sample"] == 3 * instances
    assert calls["linalg.eigh"] == instances
    assert calls["qinfo.report"] == records
    assert calls["gns.audit"] == records
    assert calls["gns.h"] == records
    assert tracer.counts["gns.h.atom_pairs"] == records * 3**4
    assert calls["harness.serialize"] == 2 * records + 1  # row, writerow, header
    roots = [span for span in tracer.spans if span[2] is None]
    assert [span[1] for span in roots] == ["harness.loop"]


def test_cross_check_accepts_records_and_catches_a_changed_value():
    from skewcal.harness import SweepConfig, run_sweep

    records = []
    run_sweep(SweepConfig(dims=(4,), trials=2, f_specs=run.KEYS, seed=7), records.append)
    for record in records:
        assert run.record_matches(record, run.reference_scalars(record))
    bad = dict(records[0], info_a=records[0]["info_a"] * (1 + 1e-6))
    assert not run.record_matches(bad, run.reference_scalars(bad))


def test_checker_counts_flagged_and_missing_records():
    from skewcal.harness import SweepConfig, run_sweep

    config = SweepConfig(dims=(2,), trials=3, f_specs=run.KEYS, seed=3)
    records = []
    summary = run_sweep(config, records.append)
    checker = run.Checker()
    checker.check(config, summary, records)
    assert (checker.attempted, checker.failed) == (15, 0)
    records[1] = dict(records[1], flags=["main_inequality_violation"])
    checker.check(config, summary, records[:-1])
    assert (checker.attempted, checker.failed) == (30, 2)


def test_probe_pins_one_cpu_and_restores_affinity():
    from probe import Probe

    allowed = os.sched_getaffinity(0)
    with Probe() as probe:
        assert probe.pin_fastest() > 0
        assert len(os.sched_getaffinity(0)) == 1
        assert os.sched_getaffinity(0) <= allowed
    assert os.sched_getaffinity(0) == allowed
