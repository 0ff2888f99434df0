"""Quickstart: a replicated database kept consistent by epidemics.

Builds a 50-site cluster that distributes updates by direct mail (fast
but lossy) backed by push-pull anti-entropy (slow but certain), injects
a few writes and a delete, and watches the replicas converge.

Run:  python examples/quickstart.py
"""

from repro import (
    AntiEntropyConfig,
    AntiEntropyProtocol,
    Cluster,
    DirectMailProtocol,
    ExchangeMode,
)


def main() -> None:
    cluster = Cluster(n=50, seed=2026)

    # Direct mail does the timely distribution; 10% of letters vanish.
    mail = DirectMailProtocol(loss_probability=0.1)
    cluster.add_protocol(mail)

    # Anti-entropy runs every cycle and repairs whatever mail dropped.
    anti_entropy = AntiEntropyProtocol(
        config=AntiEntropyConfig(mode=ExchangeMode.PUSH_PULL)
    )
    cluster.add_protocol(anti_entropy)

    print("injecting three writes at different sites ...")
    cluster.inject_update(0, "printer:bldg-35", "10.0.7.12")
    cluster.inject_update(17, "printer:bldg-40", "10.0.9.3")
    cluster.inject_update(42, "user:mcdaniel", "CSL")

    cycles = cluster.run_until(cluster.converged, max_cycles=100)
    print(f"converged after {cycles} cycles "
          f"(mail dropped {mail.stats.dropped} letters)")
    for key in ("printer:bldg-35", "printer:bldg-40", "user:mcdaniel"):
        values = set(cluster.values_of(key).values())
        print(f"  {key!r:24} -> {values}")

    print("\ndeleting printer:bldg-35 (death certificate) ...")
    cluster.inject_delete(5, "printer:bldg-35")
    cluster.run_until(cluster.converged, max_cycles=100)
    values = set(cluster.values_of("printer:bldg-35").values())
    print(f"  printer:bldg-35 now reads {values} at every site")

    print("\nupdating a key that was updated concurrently at two sites ...")
    cluster.inject_update(3, "user:mcdaniel", "PARC-CSL")
    cluster.inject_update(44, "user:mcdaniel", "PARC-ISL")
    cluster.run_until(cluster.converged, max_cycles=100)
    values = set(cluster.values_of("user:mcdaniel").values())
    print(f"  all replicas agree on the last-writer-wins winner: {values}")


if __name__ == "__main__":
    main()
