"""Figure 6: JWINS vs CHOCO-SGD under 20% and 10% communication budgets.

Paper result: at the same budget JWINS reaches the target accuracy up to 3.9x
faster than CHOCO and ends up 2.4-9.3% more accurate for the same bytes, and
the gap widens as the budget shrinks ("the performance gap gets stronger in
favor of JWINS as the communication budget gets smaller").  CHOCO additionally
needs its consensus step size gamma tuned per budget (0.6 at 20%, 0.1 at 10%).

At simulator scale single runs of the 20% setting are noisy, so the benchmark
runs both budgets and asserts the paper's robust claims: budget compliance,
a clear JWINS win at the tight 10% budget, and a JWINS-vs-CHOCO gap that grows
as the budget shrinks.

The grid (full sharing plus {JWINS, CHOCO} x {20%, 10%}) runs as the
declarative ``fig6_sweep`` and the report comes from the same ``render_fig6``
layer that ``jwins-repro regenerate`` uses.
"""

from __future__ import annotations

from benchmarks.conftest import save_report
from repro.orchestration import ResultStore, fig6_sweep, render_fig6, run_sweep

BUDGETS = (0.2, 0.1)


def _run():
    store = ResultStore()
    sweep = fig6_sweep()
    run_sweep(sweep, store)
    results = {cell.scheme.label: store.get(cell.spec) for cell in sweep.cells()}
    report = render_fig6(store)["fig6_jwins_vs_choco"]
    return results, report


def test_fig6_jwins_vs_choco(benchmark):
    results, report = benchmark.pedantic(_run, rounds=1, iterations=1)

    save_report("fig6_jwins_vs_choco", report)

    full = results["full-sharing"]
    gaps = {}
    for budget in BUDGETS:
        jwins = results[f"jwins@{int(100 * budget)}%"]
        choco = results[f"choco@{int(100 * budget)}%"]
        # Both budgeted schemes respect the budget (well under half of full sharing).
        assert jwins.total_bytes < 0.45 * full.total_bytes
        assert choco.total_bytes < 0.45 * full.total_bytes
        # Both still learn something under the budget.
        assert jwins.final_accuracy > 0.3
        gaps[budget] = jwins.final_accuracy - choco.final_accuracy

    # Clear JWINS win at the tight 10% budget (paper: +9.3% accuracy).
    assert gaps[0.1] > 0.02
    # The gap moves in JWINS' favour as the budget shrinks (paper's headline shape).
    assert gaps[0.1] >= gaps[0.2] - 0.02
    # At the 20% budget both are in the same league (paper: JWINS +2.4%).
    assert gaps[0.2] > -0.20
