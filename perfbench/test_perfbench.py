"""Self-tests of the benchmark: python3 -m pytest perfbench -q (from the repo root)."""

import json
import shutil

import pytest

import gate
import metrics
import run
import tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    t = tracer.Tracer(clock=clock)
    outer = t.open("outer")           # 0 .. 10
    clock.now = 1.0
    a = t.open("a")                   # 1 .. 4
    clock.now = 2.0
    inner = t.open("inner")           # 2 .. 3
    t.count("ops", 5)
    clock.now = 3.0
    t.close(inner)
    clock.now = 4.0
    t.close(a)
    clock.now = 6.0
    b = t.open("a")                   # 6 .. 7.5
    clock.now = 7.5
    t.close(b)
    clock.now = 10.0
    t.close(outer)
    spans = t.dump()["spans"]
    selfs = tracer.self_times(spans)
    assert selfs[outer.id] == pytest.approx(10.0 - 3.0 - 1.5)
    assert selfs[a.id] == pytest.approx(2.0)
    assert selfs[inner.id] == pytest.approx(1.0)
    rows = tracer.summarize(spans)
    assert rows["a"]["calls"] == 2
    assert rows["a"]["s"] == pytest.approx(4.5)
    assert rows["a"]["self_s"] == pytest.approx(3.5)
    # counts are inclusive: every open span and the totals see them
    assert rows["outer"]["counts"] == {"ops": 5}
    assert rows["a"]["counts"] == {"ops": 5}
    assert t.totals == {"ops": 5}
    assert {s["parent"] for s in spans if s["name"] == "a"} == {outer.id}


def test_overlapping_children_are_counted_once():
    assert tracer._covered([(1, 4), (2, 5), (7, 8), (9, 20)], 0, 10) == pytest.approx(6.0)


def test_install_patches_every_imported_binding_and_undoes(monkeypatch):
    monkeypatch.syspath_prepend(str(run.SRC))
    import torusflow.fields as fields
    import torusflow.flow as flow
    import torusflow.geometry as geometry

    original = fields.complex_hessian
    t = tracer.Tracer()
    undo = tracer.install(t, [("torusflow.fields", "complex_hessian", "hess", None, None)])
    try:
        assert geometry.complex_hessian is flow.complex_hessian is fields.complex_hessian
        assert fields.complex_hessian is not original
        geo = fields.TorusGeometry(n=1, N=8)
        geometry.assemble(geometry.KahlerMetric(
            [[1.0]], fields.constant_field(geo, 0.0)))
    finally:
        tracer.uninstall(undo)
    assert geometry.complex_hessian is original and flow.complex_hessian is original
    assert [s.name for s in t.spans] == ["hess"]


def test_benchmark_json_lists_the_metrics_run_py_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == metrics.WORKLOADS
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]} == (
        metrics.END_TO_END)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        k: v[:2] for k, v in metrics.PER_LAYER.items()}


@pytest.fixture(scope="module")
def traced_reps(tmp_path_factory):
    """Two traced dist-n1-N64 repetitions at the default seed."""
    work = tmp_path_factory.mktemp("bench")
    wl = run.Workload("dist-n1-N64", run.DEFAULT_SEED, work)
    outs, recs = [], []
    for k in range(2):
        out = work / f"kept{k}"
        rec = run.spawn(work, f"t{k}", wl.cli_args(out), traced=True)
        outs.append(out)
        recs.append(rec)
    return wl, outs, recs


def test_gate_passes_a_real_run_and_fails_perturbed_copies(traced_reps, tmp_path):
    wl, outs, recs = traced_reps
    out = outs[0]
    assert gate.check_manifest(out, recs[0]["exit_code"]) == []
    assert gate.compare(gate.capture(out), wl.reference) == []
    assert gate.check_manifest(out, 1) == ["exit code 1"]

    def perturbed(relpath, edit):
        copy = tmp_path / f"copy{len(list(tmp_path.iterdir()))}"
        shutil.copytree(out, copy)
        target = copy / relpath
        target.write_text(edit(target.read_text()))
        return gate.compare(gate.capture(copy), wl.reference)

    def bump_number(text):
        lines = text.splitlines(keepends=True)
        cells = lines[1].split(",")
        cells[2] = repr(float(cells[2]) * (1 + 1e-6))
        lines[1] = ",".join(cells)
        return "".join(lines)

    assert perturbed("family.csv", bump_number)[0].startswith("family.csv row 1 col 2")
    assert perturbed("scenario_i004/distance.csv", bump_number)[0].startswith(
        "scenario_i004/distance.csv row 1 col 2")
    flipped = perturbed("scenario_i001/checks.csv",
                        lambda text: text.replace(",true\n", ",false\n", 1))
    assert flipped == ["check names or verdicts differ from the reference"]


def test_trace_digest_sees_a_rewritten_trace(traced_reps):
    out = traced_reps[1][0]
    before = gate.trace_digest(out)
    meta = out / "scenario_i001" / "trace" / "meta.json"
    meta.write_text(meta.read_text())
    assert gate.trace_digest(out) != before


def test_exact_counts_repeat_across_traced_runs(traced_reps):
    _, outs, recs = traced_reps
    first, second = (
        tracer.layer_metrics(rec["trace"], json.loads((out / "manifest.json").read_text()))
        for rec, out in zip(recs, outs)
    )
    for name in ("flow.steps", "fields.fft_calls", "distances.dijkstra_sources",
                 "distances.graph_edges", "io.bytes_written"):
        assert first[name] == second[name] > 0, name
    assert set(first) | {"trace.run_s", "trace.overhead_s"} == set(metrics.PER_LAYER)


def test_host_probe_runs():
    assert 0 < run.probe_host() < 60


def test_run_refuses_a_directory_without_the_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "dist-n1-N64", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
