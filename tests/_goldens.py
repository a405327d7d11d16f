"""Frozen golden values for the reference connectionless workload.

The workload: 16000 B each way at 1 Mbps up / 0.8 Mbps down, 150 ms server
elaboration, 40 ms edge round trip.  Energies were computed by hand from
the piecewise decay-chain accounting and rounded to one decimal of mJ, so
comparisons carry a 0.1 mJ tolerance.
"""

REFERENCE_T_ELAB = 150.0
REFERENCE_EDGE_RTT = 40.0
REFERENCE_BYTES = 16000.0

# (t_i, rtt_cloud, e_w_edge, e_w_cloud, e_q_edge, e_q_cloud,
#  e_i_edge, e_i_cloud)
GOLDEN_ROWS = [
    (750, 50, 190.0, 200.0, 225.9, 222.3, 729.5, 735.9),
    (750, 75, 190.0, 209.0, 225.9, 213.3, 729.5, 735.9),
    (750, 100, 190.0, 218.0, 225.9, 204.3, 729.5, 735.9),
    (750, 150, 190.0, 235.9, 225.9, 162.0, 729.5, 711.5),
    (750, 200, 190.0, 253.9, 225.9, 112.0, 729.5, 679.5),
    (750, 250, 190.0, 271.8, 225.9, 62.0, 729.5, 647.4),
    (750, 300, 190.0, 289.8, 225.9, 12.0, 729.5, 615.4),
    (1000, 50, 190.0, 200.0, 315.6, 312.0, 819.2, 825.6),
    (1000, 75, 190.0, 209.0, 315.6, 303.1, 819.2, 825.6),
    (1000, 100, 190.0, 218.0, 315.6, 294.1, 819.2, 825.6),
    (1000, 150, 190.0, 235.9, 315.6, 276.1, 819.2, 825.6),
    (1000, 200, 190.0, 253.9, 315.6, 258.2, 819.2, 825.6),
    (1000, 250, 190.0, 271.8, 315.6, 240.2, 819.2, 825.6),
    (1000, 300, 190.0, 289.8, 315.6, 222.3, 819.2, 825.6),
]

# Rows where the cloud placement wins (e_i_cloud < e_i_edge).
CLOUD_FAVORABLE = {(750, 150), (750, 200), (750, 250), (750, 300)}


def reference_scenarios(t_i, rtt_cloud):
    """Edge/cloud scenario pair for one golden row."""
    from ltenergy.analytic import ConnectionlessScenario

    common = dict(
        t_i=float(t_i),
        t_elab=REFERENCE_T_ELAB,
        b_tx=REFERENCE_BYTES,
        b_rx=REFERENCE_BYTES,
    )
    return (
        ConnectionlessScenario(rtt=REFERENCE_EDGE_RTT, **common),
        ConnectionlessScenario(rtt=float(rtt_cloud), **common),
    )


def idle_gap_energy(gap, profile):
    """Energy (mJ) of a quiet gap that starts in CR, as the one accounting
    prices it: the wait of a cycle with no transfer, whose period leaves
    room for the wait's promotion and 1 ms of quiet time.  A negative gap
    is rejected by ``PhaseTiming``."""
    from ltenergy.analytic import price_cycle

    return price_cycle(0.0, gap, 0.0, gap + profile.t_prom + 1.0,
                       profile)[1].e_w
