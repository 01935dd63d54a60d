"""Tests of the benchmark itself: tiny smoke runs of every workload body,
negative tests showing the output checks fire, and the tracer's
contract (spans nest, bindings restore, results unchanged).

Run from the repository root::

    python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys
import time
import types


HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run.load_program()

import instrument  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def _spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_spec_matches_runner():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]
    ] == run.END_TO_END
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ] == instrument.PER_LAYER


def test_tail_mean_from_nearest_rank():
    values = list(range(1, 41))
    assert run.tail_mean(values, 0.75) == sum(range(30, 41)) / 11
    assert run.tail_mean(values, 1.0) == 40
    assert run.tail_mean([5.0], 0.9) == 5.0


# ----------------------------------------------------------------------
# Workload bodies at tiny sizes
# ----------------------------------------------------------------------
def test_cold_build_smoke_and_determinism():
    bench = workloads.ColdBuild(3, scale="small")
    bench.setup()
    first, again = bench.unit(0), bench.unit(0)
    assert first.failed == 0 and not first.problems
    assert first.digest == again.digest
    assert bench.unit(1).digest != first.digest


def test_cold_build_check_fires_on_corrupt_fib(monkeypatch):
    build_fibs = workloads.fib_mod.build_fibs

    def corrupted(engine, *args, **kwargs):
        fibs = build_fibs(engine, *args, **kwargs)
        trie = fibs.tables[min(fibs.tables)]
        prefix = next(p for p, _hop in trie.items() if p.length)
        trie[prefix] = -2
        return fibs

    monkeypatch.setattr(workloads.fib_mod, "build_fibs", corrupted)
    bench = workloads.ColdBuild(3, scale="small")
    bench.setup()
    unit = bench.unit(0)
    assert unit.failed == 1
    assert any("Loc-RIB says" in p for p in unit.problems)


def _ladder(seed=5):
    bench = workloads.RepairLadder(seed, scale="small")
    bench.num_targets = 2
    bench.setup()
    return bench


def test_repair_ladder_smoke_returns_to_baseline():
    bench = _ladder()
    steps = bench.num_targets * len(workloads.RUNGS)
    units = [bench.unit(i) for i in range(steps)]
    assert all(u.failed == 0 for u in units), [u.problems for u in units]
    assert bench.forwarding_digest() == bench.baseline_digest
    again = _ladder()
    assert [again.unit(i).digest for i in range(steps)] == [
        u.digest for u in units
    ]


def test_repair_ladder_check_fires_on_routing_poisoned_as():
    bench = _ladder()
    routed = next(
        asn for asn, speaker in sorted(bench.engine.speakers.items())
        if speaker.best(bench.prefix) is not None
    )
    assert bench.check("poison", (routed,))


def test_repair_ladder_check_fires_on_stale_fib():
    bench = _ladder()
    asn = min(bench.fibs.tables)
    bench.fibs.tables[asn][bench.prefix] = -2
    assert any("FIB" in p for p in bench.check("poison", ()))


def _service(tmp_path, seed=2):
    bench = workloads.Service(
        seed, str(tmp_path), scale="tiny", helper_vps=2, targets=6
    )
    bench.duration = 1800.0
    bench.journal_max_bytes = 4096
    bench.setup()
    return bench


def test_service_smoke(tmp_path):
    bench = _service(tmp_path)
    unit = bench.unit(0)
    assert unit.failed == 0, unit.problems
    assert unit.info["journal_rotations"] >= 1
    assert len(unit.latencies) == unit.info["rounds"]
    # The default gauge is off: normalized times are the wall times.
    assert unit.norm_latencies == unit.latencies
    assert abs(unit.norm_timed_s - unit.timed_s) < 1e-9
    bench.setup()
    assert bench.unit(0).digest == unit.digest
    bench.close()
    assert os.listdir(tmp_path) == []


def test_service_check_fires_on_abandoned_repairs(tmp_path, monkeypatch):
    bench = _service(tmp_path)
    monkeypatch.setattr(
        type(bench.service), "_abandoned", lambda self: 1
    )
    unit = bench.unit(0)
    assert unit.failed >= 1
    assert any("abandoned" in p for p in unit.problems)
    bench.close()


def test_fuzz_diff_smoke():
    bench = workloads.FuzzDiff(4, scale="small")
    bench.setup()
    unit = bench.unit(0)
    assert unit.failed == 0 and unit.attempted == bench.cases
    assert bench.unit(0).digest == unit.digest


class _HalfSpeedHost(workloads.HostSpeed):
    """A host running everything at half the reference speed."""

    def slowdown(self) -> float:
        return 2.0


def test_host_speed_gauge_and_normalized_times():
    off = workloads.HostSpeed(enabled=False)
    assert off.slowdown() == 1.0
    assert off.samples == [] and off.spent_s == 0.0
    on = workloads.HostSpeed()
    on.sample()
    assert on.slowdown() > 0
    assert len(on.samples) == 2
    assert abs(on.spent_s - sum(on.samples)) < 1e-12

    bench = workloads.FuzzDiff(4, scale="tiny")
    bench.cases = 2
    bench.host = _HalfSpeedHost()
    bench.setup()
    unit = bench.unit(0)
    assert unit.norm_latencies == [x / 2.0 for x in unit.latencies]
    assert unit.norm_timed_s == unit.timed_s / 2.0


def test_fuzz_diff_injected_divergence_fails():
    bench = workloads.FuzzDiff(4, scale="tiny", inject=True)
    bench.cases = 2
    bench.setup()
    unit = bench.unit(0)
    assert unit.failed > 0
    assert unit.failed / unit.attempted > 0


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
def _toy_module():
    module = types.ModuleType("toy")

    def inner(x):
        time.sleep(0.02)
        return x + 1

    def outer(x):
        time.sleep(0.01)
        return module.inner(x) * 2

    module.inner, module.outer = inner, outer
    return module


def test_tracer_self_time_nesting_and_restore():
    module = _toy_module()
    original = module.outer
    tracer = Tracer()
    tracer.wrap(module, "outer", "a")
    tracer.wrap(module, "inner", "b",
                after=lambda t, tok, res, a, k: t.count("b.calls"))
    with tracer:
        assert module.outer(1) == 4
    assert module.outer is original
    assert tracer.calls == {"a": 1, "b": 1}
    assert tracer.counts["b.calls"] == 1
    assert 0.009 <= tracer.self_s["a"] < 0.019
    assert tracer.self_s["b"] >= 0.019


def test_traced_ladder_keeps_digests_and_attributes_time():
    plain = _ladder()
    expected = [plain.unit(i).digest for i in range(8)]
    traced = _ladder()
    tracer = instrument.build_tracer()
    with tracer:
        units = [traced.unit(i) for i in range(8)]
    assert [u.digest for u in units] == expected
    values = instrument.layer_metrics(tracer, units, 1.0)
    assert values["dataplane.fib.dirty_ases"] > 0
    assert values["bgp.engine.run_s"] > 0
    assert values["unattributed_share"] < 0.1
    assert {name for name, _u, _b in instrument.PER_LAYER} == set(values)


# ----------------------------------------------------------------------
# The runner's refusals
# ----------------------------------------------------------------------
def _runner(cwd, env=None):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", "fuzz-diff", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def test_runner_refuses_repro_knobs():
    env = dict(os.environ, REPRO_DELTA_MODE="auto")
    done = _runner(run.ROOT, env)
    assert done.returncode != 0
    assert "REPRO_DELTA_MODE" in done.stderr
    assert done.stdout == ""


def test_runner_refuses_without_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = _runner(str(tmp_path), env)
    assert done.returncode != 0
    assert done.stdout == ""
