"""Section 5.1: validating the trace-driven methodology.

The paper validates its QualNet pipeline by running VanLAN both ways —
live deployment vs trace-driven from the same beacon logs — and finds
VoIP session lengths agree within a few seconds.  We reproduce that
check: per trip, the gap between the deployment-style median VoIP
session and the trace-driven one must be small relative to the session
lengths themselves.
"""

from conftest import print_table


def test_validation_trace_vs_deployment(benchmark, save_results, figure):
    rows = benchmark.pedantic(figure.run, rounds=1, iterations=1)
    print_table(
        "Section 5.1 validation: VoIP session medians",
        [(f"trip {r['trip']}", r["deployment_s"], r["trace_s"],
          r["gap_s"]) for r in rows],
        headers=["deployment", "trace-driven", "gap"],
    )
    save_results("validation", figure.payload(rows))

    for r in rows:
        scale = max(r["deployment_s"], r["trace_s"], 6.0)
        assert r["gap_s"] <= max(0.75 * scale, 9.0)
