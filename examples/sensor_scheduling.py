#!/usr/bin/env python3
"""Share a sensor-network testbed between applications over time (snBench scenario).

Scenario (paper §III and §VIII): "a sensor network in which it is desirable to
locate a subset of sensors that possess certain capabilities", combined with
the scheduling follow-up work — "resources once assigned would not be
available for some amount of time", so the embedding service must find "a
window of time in which some feasible embedding is available".

The infrastructure is a transit-stub field deployment: gateway (transit)
nodes with stub clusters of sensors.  Three applications request sensor
sub-topologies with capability constraints; the scheduler books each request
into the earliest time window whose remaining sensors can host it, and the
cluster coordinator shows how per-building (per-domain) NETEMBED servers
would have answered the same queries.

Run with:  python examples/sensor_scheduling.py
"""

from __future__ import annotations

from repro import QueryNetwork
from repro.cluster import ClusterCoordinator
from repro.core import LNS
from repro.extensions import EmbeddingScheduler, partition_by_attribute
from repro.topology import transit_stub
from repro.utils.rng import as_rng


def build_sensor_field():
    """A transit-stub testbed whose stub nodes are sensors with capabilities."""
    field = transit_stub(num_transit_domains=2, transit_size=3,
                         stubs_per_transit_node=2, stub_size=4, rng=11)
    rng = as_rng(17)
    for node in field.nodes():
        if field.get_node_attr(node, "tier") == "stub":
            field.update_node(
                node,
                hasCamera=rng.random() < 0.4,
                hasTemperature=rng.random() < 0.8,
                batteryLevel=round(rng.uniform(0.2, 1.0), 2),
            )
    return field


def monitoring_request(name: str, sensors: int, needs_camera: bool) -> QueryNetwork:
    """A star of sensors reporting to one aggregator, all within a delay budget."""
    query = QueryNetwork(name)
    query.add_node("aggregator")
    for index in range(sensors):
        sensor = f"sensor{index}"
        query.add_node(sensor, needsCamera=needs_camera)
        query.add_edge("aggregator", sensor, maxDelay=40.0)
    return query


def main() -> None:
    field = build_sensor_field()
    print(f"sensor field: {field.num_nodes} nodes, {field.num_edges} links, "
          f"{sum(1 for n in field.nodes() if field.get_node_attr(n, 'tier') == 'stub')} sensors\n")

    delay_budget = "rEdge.avgDelay <= vEdge.maxDelay"
    capability = ("isBoundTo(vNode.needsCamera, rNode.hasCamera)"
                  " || vNode.needsCamera != true")

    # ------------------------------------------------------------------ #
    # Time-shared allocation: three applications, slotted schedule.
    # ------------------------------------------------------------------ #
    scheduler = EmbeddingScheduler(field, algorithm=LNS(), horizon=12)
    requests = [
        ("air-quality", monitoring_request("air-quality", sensors=3,
                                           needs_camera=False), 3),
        ("intrusion-detection", monitoring_request("intrusion", sensors=2,
                                                   needs_camera=True), 2),
        ("hvac-tuning", monitoring_request("hvac", sensors=4,
                                           needs_camera=False), 4),
    ]
    print("time-slotted schedule:")
    for label, query, duration in requests:
        outcome = scheduler.schedule(query, constraint=delay_budget,
                                     duration=duration)
        if outcome.scheduled:
            booking = outcome.booking
            sensors = ", ".join(f"{q}->{r}" for q, r in sorted(booking.mapping.items()))
            print(f"  {label:>20}: slots [{booking.start}, {booking.end}) on {sensors}")
        else:
            print(f"  {label:>20}: could not be scheduled within the horizon")
    print(f"  bookings held: {len(scheduler.calendar)}\n")

    # ------------------------------------------------------------------ #
    # Partitioned (per-domain) embedding of the camera request.
    # ------------------------------------------------------------------ #
    domains = partition_by_attribute(field, "domain")
    coordinator = ClusterCoordinator(field, partition_map=domains,
                                     algorithm=LNS())
    camera_query = monitoring_request("camera-survey", sensors=2, needs_camera=True)
    outcome = coordinator.embed(camera_query, constraint=delay_budget,
                                node_constraint=capability, max_results=1)
    print("partitioned embedding of the camera survey:")
    searched = [o.partition for o in outcome.outcomes if o.status != "pruned"]
    print(f"  domains searched: {searched} ({outcome.partitions_pruned} pruned)")
    if outcome.found:
        where = ("across domains" if outcome.used_cross_partition
                 else f"inside {outcome.partition}")
        print(f"  placed {where}: "
              + ", ".join(f"{q}->{r}" for q, r in sorted(outcome.first.items())))
    else:
        print(f"  no placement found (verdict: {outcome.verdict})")


if __name__ == "__main__":
    main()
