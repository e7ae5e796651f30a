"""Tests of the benchmark's own tracing.

    python3 -m pytest perfbench/tests -q
"""

import sys
import types
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import layers  # noqa: E402
import spans  # noqa: E402


def _fake_package():
    """pkg.core defines leaf/middle/top calling through module globals;
    pkg.user holds a copied binding of leaf, as `from x import f` makes."""
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")

    def leaf(n):
        return sum(i * i for i in range(n))

    def middle(n):
        return core.leaf(n) + core.leaf(2 * n)

    def top(n):
        return core.middle(n) + core.leaf(n)

    core.leaf, core.middle, core.top = leaf, middle, top
    user.leaf = leaf
    for mod in (pkg, core, user):
        sys.modules[mod.__name__] = mod
    return core, user


def _targets():
    return [spans.Target("fakepkg.core", name, f"core.{name}")
            for name in ("top", "middle", "leaf")]


def test_self_times_sum_to_root_duration():
    core, _ = _fake_package()
    tracer = spans.Tracer(package="fakepkg")
    tracer.install(_targets())
    for op in range(3):
        tracer.op_id = op
        with tracer.span("op"):
            core.top(20000)
    tracer.remove()
    arr = tracer.arrays()
    duration = arr["end"] - arr["start"]
    own = spans.self_times(arr["parent"], duration)
    assert np.all(own >= 0.0)
    roots = np.flatnonzero(arr["parent"] == spans.ROOT)
    assert roots.size == 3
    for root in roots:
        tree = arr["op"] == arr["op"][root]
        assert np.isclose(own[tree].sum(), duration[root], rtol=0, atol=1e-9)
    summary = spans.summarize(tracer)
    assert summary["core.top"]["calls"] == 3
    assert summary["core.middle"]["calls"] == 3
    assert summary["core.leaf"]["calls"] == 9


def test_self_time_of_hand_built_tree():
    # root [0, 10] with children [1, 3] and [4, 9]; the second has [5, 6]
    parent = np.array([-1, 0, 0, 2])
    duration = np.array([10.0, 2.0, 5.0, 1.0])
    assert spans.self_times(parent, duration).tolist() == [3.0, 2.0, 4.0, 1.0]


def test_every_binding_wrapped_then_restored():
    core, user = _fake_package()
    originals = {name: getattr(core, name) for name in ("top", "middle", "leaf")}
    tracer = spans.Tracer(package="fakepkg")
    tracer.install(_targets())
    assert user.leaf is not originals["leaf"]  # the copied binding too
    assert user.leaf.__wrapped__ is originals["leaf"]
    tracer.remove()
    for name, fn in originals.items():
        assert getattr(core, name) is fn
    assert user.leaf is originals["leaf"]
    recorded = len(tracer.start)
    core.top(10)
    assert len(tracer.start) == recorded  # untraced calls record nothing


def test_eqtorus_targets_restored_after_traced_run():
    import eqtorus
    import eqtorus.cli  # noqa: F401 - loaded so its bindings are patched
    import eqtorus.elliptic
    import eqtorus.maps

    def snapshot():
        out = {}
        for key, mod in list(sys.modules.items()):
            if key == "eqtorus" or key.startswith("eqtorus."):
                out.update({(key, a): v for a, v in vars(mod).items()})
        out.update({("ProfileSet", a): v for a, v in
                    vars(eqtorus.maps.ProfileSet).items()})
        return out

    before = snapshot()
    tracer = spans.Tracer()
    tracer.install(layers.TARGETS)
    assert tracer.missing == []
    assert eqtorus.count_below is not before[("eqtorus", "count_below")]
    assert eqtorus.spectral.count_below is eqtorus.count_below
    eqtorus.elliptic.complete_K(0.5)
    assert len(tracer.start) == 1
    tracer.remove()
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    eqtorus.elliptic.complete_K(0.5)
    assert len(tracer.start) == 1  # the untraced call reached the original


def test_renamed_or_removed_function_reported_missing(monkeypatch):
    import eqtorus.spectral
    import workloads

    monkeypatch.delattr(eqtorus.spectral, "monodromy")  # "removed"
    monkeypatch.setattr(eqtorus.maps.ProfileSet, "rho_renamed",
                        eqtorus.maps.ProfileSet.rho, raising=False)
    monkeypatch.delattr(eqtorus.maps.ProfileSet, "rho")  # "renamed"
    targets = layers.TARGETS + [spans.Target("eqtorus.gone", "f", "gone.f")]
    tracer = spans.Tracer()
    tracer.install(targets)
    try:
        with tracer.span("op"):
            rc, out, _ = workloads.run_cli(
                ["solve-tau", "--a", "1/4", "--b", "2.1", "--p", "2",
                 "--q", "3", "--r", "0"])
    finally:
        tracer.remove()
    assert rc == 0 and '"tau1"' in out
    assert tracer.missing == ["eqtorus.spectral.monodromy",
                              "eqtorus.maps.ProfileSet.rho", "eqtorus.gone.f"]
    summary = spans.summarize(tracer)
    assert summary["cli.main"]["calls"] == 1
    values = layers.per_layer(summary, tracer.counters, ops=1,
                              overhead_ratio=1.0)
    assert set(values) == set(layers.UNITS)
    assert values["spectral.monodromy.calls"] == 0  # reads 0, not an error
    assert values["tau_solver.solve_tau.calls"] == 1
