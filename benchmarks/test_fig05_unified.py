"""Figure 5: the unified buffer forces full switch-out."""

from conftest import banner, row

from repro.experiments.behavior import run_fig5_unified_switchout


def test_fig5_unified_buffer_switchout(benchmark):
    """A seismic run on the unified-buffer baseline goes dark when the
    bank trips — the paper's 2-hour trace snapshot."""
    result = benchmark.pedantic(run_fig5_unified_switchout, rounds=1, iterations=1)
    banner("Figure 5 — unified buffer switch-out during seismic analysis")
    row("switch-out events", len(result.switch_out_times))
    if result.switch_out_times:
        row("first switch-out at (h)", f"{result.switch_out_times[0] / 3600:.2f}")
    row("demand before (W)", f"{result.demand_before_w:.0f}")
    row("demand after (W)", f"{result.demand_after_w:.0f}")

    # The bank tripped at least once and service dropped to (near) zero.
    assert len(result.switch_out_times) >= 1
    assert result.demand_before_w > 500.0
    assert result.demand_after_w < result.demand_before_w * 0.3
    # Once the servers finish saving, the whole bank is pulled to the
    # charge bus (the save itself takes ~4 minutes).
    stop_t = result.switch_out_times[0]
    pulled = {
        d.source
        for d in result.system.decisions.of_kind("buffer.mode")
        if d.data["to_mode"] == "charging" and stop_t <= d.t <= stop_t + 600.0
    }
    assert len(pulled) == len(result.system.bank)
