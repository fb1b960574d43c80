"""The benchmark's traced run still finds every program name it wraps.

``bench/tracing.py`` wraps module-level names of harness, qinfo, gns and
linalg by name and stops with KeyError when one is gone. Running it here
makes a renamed or removed function fail the test suite rather than the
benchmark. The module is loaded from its file and not modified.

The benchmark also reports ``len(skewcal.__all__)``, so the package root
and every module must keep an ``__all__`` whose names all resolve.

A module imports no name it never uses, except a name the traced run
wraps in that module.
"""

import ast
import glob
import importlib
import importlib.util
import math
import os

import skewcal
from skewcal.harness import _STACK_ENTRIES, SweepConfig, check_instance, run_sweep

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "skewcal")
FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")
TRACING_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "tracing.py"
)

KEYS = ("wyd:0.1", "wyd:0.5", "wyd:0.9", "sld", "harmonic")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("skewcal_bench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_sweeps_record_every_wrapped_layer(tmp_path):
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    configs = (
        SweepConfig(dims=(3,), trials=1, f_specs=KEYS, gns_audit=True),
        SweepConfig(
            dims=(3,), trials=1, f_specs=KEYS,
            output_path=str(tmp_path / "records.csv"), format="csv",
        ),
    )
    with tracing.traced(tracer):
        for config in configs:
            summary = tracer.wrap("harness.loop", run_sweep)(config)
            assert summary.total == len(KEYS) and summary.violations == 0
    expected = {layer for _, _, layer in tracing.TARGETS}
    expected |= {"harness.loop", "monotone.tilde", "gns.h", "linalg.rotate"}
    # The stacked audit takes its direct traces on whole stacks inside
    # gns.audit, as the stacked report does inside qinfo.report: a sweep
    # calls none of the per-instance qinfo functions (qinfo.direct).
    assert set(tracer.calls()) == expected - {"qinfo.direct"}
    assert tracer.counts["gns.h.atom_pairs"] > 0


def test_audited_sweep_builds_one_kernel_per_instance_and_f():
    # one catalog tilde call for every f, shared by the stacked report and
    # the audit: the kernels (report, direct route and G-form) and H's
    # per-atom values all read it, and H covers every f in one call
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        summary = run_sweep(SweepConfig(dims=(3,), trials=1, f_specs=KEYS, gns_audit=True))
    assert summary.total == len(KEYS) and summary.violations == 0
    calls = tracer.calls()
    assert calls["qinfo.report"] == 1
    assert calls["gns.h"] == 1
    assert calls["monotone.tilde"] == 1
    # the call takes the trial's 3^2 ratios once, for all five entries
    assert tracer.counts["monotone.tilde.elements"] == 3**2
    # H reads the K = 3^2 per-atom marginals of the one trial, not K^2 atom pairs
    assert tracer.counts["gns.h.atom_pairs"] == calls["gns.h"] * 3**2


def test_audited_sweep_audits_once_per_dim_chunk():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    dims, trials = (3, 64), 3
    with tracing.traced(tracer):
        summary = run_sweep(SweepConfig(dims=dims, trials=trials, f_specs=KEYS, gns_audit=True))
    assert summary.total == len(dims) * trials * len(KEYS) and summary.violations == 0
    chunks = sum(math.ceil(trials / max(1, _STACK_ENTRIES // d**2)) for d in dims)
    assert chunks == 3  # one chunk at dim 3, two at dim 64
    calls = tracer.calls()
    assert calls["gns.audit"] == calls["gns.mu"] == chunks
    # no GnsModel is built: build_mu computes the chunk's one spectrum
    assert calls["gns.model"] == chunks
    # per chunk, the (a, b) pair is rotated once for the report and the
    # audit, and the audit centers it in the eigenbasis without rotating
    # again; one catalog tilde call per chunk
    assert calls["linalg.rotate"] == chunks
    assert calls["monotone.tilde"] == chunks
    # one H per chunk for every f, each call over the chunk's T trials times
    # n^2 atom slots: n^2 per trial, where the K x K measure had n^4
    assert calls["gns.h"] == chunks
    assert tracer.counts["gns.h.atom_pairs"] == sum(trials * d**2 for d in dims)


def test_traced_sweep_reports_once_per_dim_chunk():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    dims, trials = (3, 64), 3
    with tracing.traced(tracer):
        summary = run_sweep(SweepConfig(dims=dims, trials=trials, f_specs=KEYS))
    records = len(dims) * trials * len(KEYS)
    assert summary.total == records and summary.violations == 0
    chunks = sum(math.ceil(trials / max(1, _STACK_ENTRIES // d**2)) for d in dims)
    assert chunks == 3  # one chunk at dim 3, two at dim 64
    calls = tracer.calls()
    assert calls["qinfo.report"] == chunks < records
    # per chunk: one state stack and one stack of the (a, b) pair, and one batched eigh
    assert calls["linalg.sample"] == 2 * chunks
    assert calls["linalg.eigh"] == chunks
    # one stacked DensityMatrix.to_eigenbasis of the pair per chunk, and one
    # catalog tilde call per chunk
    assert calls["linalg.rotate"] == chunks
    assert calls["monotone.tilde"] == chunks


def test_traced_check_evaluates_one_instance_once():
    # check_instance builds one terms object for the report and the audit:
    # one tilde pass and one rotation of the (a, b) pair, nothing more
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    names = ("rho_fixture.json", "sigma_x.json", "sigma_y.json")
    paths = (os.path.join(FIXTURES, name) for name in names)
    with tracing.traced(tracer):
        payload, code = check_instance(*paths, "wyd:0.5")
    assert code == 0, payload
    calls = tracer.calls()
    assert calls["monotone.tilde"] == 1
    assert calls["linalg.rotate"] == 1
    assert calls["linalg.eigh"] == 1
    assert calls["gns.h"] == 1


def test_package_root_and_module_exports_resolve():
    assert isinstance(skewcal.__all__, list) and skewcal.__all__
    for name in skewcal.__all__:
        assert hasattr(skewcal, name), name
    for module_name in ("linalg", "monotone", "qinfo", "gns", "harness"):
        module = importlib.import_module(f"skewcal.{module_name}")
        assert module.__all__, module_name
        for name in module.__all__:
            assert hasattr(module, name), (module_name, name)


def _unused_imports(path):
    """Names a module imports but never reads, nor lists in its ``__all__``."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        targets = node.targets if isinstance(node, ast.Assign) else ()
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            used |= {elt.value for elt in node.value.elts}
    return imported - used


def test_modules_import_only_names_they_use_or_the_tracer_wraps():
    tracing = _load_tracing()
    unused = {}
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        module = os.path.splitext(os.path.basename(path))[0]
        wrapped = {name for owner, name, _ in tracing.TARGETS if owner == module}
        if module in tracing.TILDE_CALLERS:
            wrapped.add("tilde_transform")
        names = _unused_imports(path)
        assert names <= wrapped, (module, sorted(names - wrapped))
        if names:
            unused[module] = names
    # only the tracer keeps these alive
    assert unused == {
        "gns": {"centered", "covariance", "f_correlation", "f_information", "variance", "tilde_transform"},
        "harness": {"GnsModel"},
        "linalg": {"tilde_transform"},
    }
