"""Table 1 — dataset structure and the O(a² + Σ nᵢ²) memory model.

Regenerates every row of Table 1 on the stand-ins: |V|, |E|, #BCCs,
largest-BCC %, nodes-removed %, and both memory columns.  The assertion
mirrors the paper's point: our storage never exceeds the dense table and
the savings concentrate on the fragmented / chain-heavy datasets
(Wordnet3, soc-sign-epinions, cond_mat).
"""

from repro.bench import expected, format_table, run_table1


def test_table1_structure(benchmark, scale):
    rows = benchmark.pedantic(lambda: run_table1(scale=scale), rounds=1, iterations=1)
    # The paper's MB columns price 4-byte entries.
    ours, reduced, mx = (
        {r.name: r.storage_bytes(4)[key] / 2**20 for r in rows}
        for key in ("oracle_bytes", "reduced_oracle_bytes", "dense_bytes")
    )
    print()
    print(
        format_table(
            ["graph", "|V|", "|E|", "#BCC", "largest%", "removed%",
             "ours MB", "reduced MB", "max MB"],
            [
                (r.name, r.n, r.m, r.n_bcc, r.largest_bcc_edge_pct,
                 r.nodes_removed_pct, ours[r.name], reduced[r.name], mx[r.name])
                for r in rows
            ],
            title="Table 1 (reproduced)",
        )
    )
    savings = {}
    red_savings = {}
    for name in ours:
        assert ours[name] <= mx[name] * (1 + 1e-9), name
        assert reduced[name] <= ours[name] * (1 + 1e-9), name
        savings[name] = mx[name] / ours[name] if ours[name] else float("inf")
        red_savings[name] = mx[name] / reduced[name] if reduced[name] else float("inf")
    paper_saving = {
        name: mx / ours for name, (ours, mx) in expected.TABLE1_MEMORY_MB.items()
    }
    # The paper's biggest savers: fragmented graphs save under the stated
    # per-BCC formula; chain-heavy single-BCC graphs (c-50) only under the
    # reduced-table accounting (see EXPERIMENTS.md).
    for name in ("Wordnet3", "soc-signs-epinions"):
        assert savings[name] > 1.1, (name, savings[name])
    for name in ("c-50", "as-22july06", "Wordnet3"):
        assert red_savings[name] > 1.5, (name, red_savings[name])
    print()
    print(
        format_table(
            ["graph", "paper saving x", "per-BCC model x", "reduced model x"],
            [(n, paper_saving[n], savings[n], red_savings[n]) for n in savings],
            title="Memory saving factor: paper vs measured",
        )
    )
    benchmark.extra_info["savings"] = {k: round(v, 2) for k, v in savings.items()}
