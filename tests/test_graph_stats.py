"""Structural statistics and the storage model (Table-1 columns)."""

from repro.graph import CSRGraph, cycle_graph, path_graph, table1_row


def test_table1_row_cycle():
    st = table1_row(cycle_graph(10), "ring")
    assert st.name == "ring"
    assert st.n == 10 and st.m == 10
    assert st.n_bcc == 1
    assert st.largest_bcc_edge_pct == 100.0
    assert st.degree2_pct == 100.0
    # whole ring contracts to one anchor
    assert st.nodes_removed_pct == 90.0
    # one block, no articulation point; the reduced table keeps the
    # anchor (1²) plus three scalars per removed vertex
    assert (st.n_articulation, st.ap_entries) == (0, 0)
    assert st.component_entries == st.dense_entries == 100
    assert st.reduced_entries == 1 + 3 * 9


def test_table1_row_empty_graph():
    st = table1_row(CSRGraph(0, [], []))
    assert st.n == 0 and st.nodes_removed_pct == 0.0
    assert st.storage_bytes(8)["oracle_bytes"] == 0


def test_storage_bytes_prices_every_entry_count():
    st = table1_row(path_graph(4), "p4")  # 3 bridges (2x2 tables), 2 APs
    for entry_bytes in (4, 8):
        b = st.storage_bytes(entry_bytes)
        assert b["ap_bytes"] == 2 * 2 * entry_bytes
        assert b["component_bytes"] == 3 * 4 * entry_bytes
        assert b["oracle_bytes"] == b["ap_bytes"] + b["component_bytes"]
        assert b["reduced_oracle_bytes"] == b["ap_bytes"] + b["reduced_bytes"]
        assert b["dense_bytes"] == 16 * entry_bytes
        assert b["dtype_bytes"] == entry_bytes
        assert (b["name"], b["n"], b["m"], b["n_bcc"], b["n_articulation"]) == (
            "p4", 4, 3, 3, 2,
        )
