"""Properties of the cross-shard link-channel layer.

The conservative-sync safety argument rests on three properties of
:class:`~repro.sim.channel.ChannelHalf` / ``ChannelGroup``:

- frames on one channel deliver in send order (per-channel sequence
  numbers, injected in a deterministic sort);
- no frame ever delivers before ``send time + link latency`` (it also
  pays serialization at line rate first);
- the delivery ticks are *independent of the sync quantum*: any epoch
  length ``q <= link latency`` yields bit-identical delivery times, and
  they equal what a single-process :class:`~repro.nic.phy.EtherLink`
  computes for the same send schedule.

Everything here runs under :class:`InProcessCoupler` — no processes —
which drives the exact ``begin_epoch``/``finish_epoch`` code path the
multiprocess shard runner uses.  The same coupling also runs the
paper's Fig 1a client/server pair the way dist-gem5 does (the Test Node
and its load generator in two simulations synchronized at the link
latency), and pins one known ordering defect as a strict xfail.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import testpmd
from repro.loadgen.ether_load_gen import EtherLoadGen, SyntheticConfig
from repro.net.packet import MacAddress, Packet
from repro.nic.phy import EtherLink, EtherPort
from repro.sim.channel import (
    ChannelError,
    ChannelGroup,
    ChannelHalf,
    InProcessCoupler,
    decode_frame,
    encode_frame,
)
from repro.sim.simobject import Simulation
from repro.sim.ticks import us_to_ticks
from repro.system.node import DpdkNode
from repro.system.presets import gem5_default

MAC_A = MacAddress.parse("02:00:00:00:00:01")
MAC_B = MacAddress.parse("02:00:00:00:00:02")

LATENCY = 1_000          # ticks (1 ns): the quantum bound under test
BANDWIDTH = 100e9

#: A send schedule: (gap from previous send, wire_len) per frame.
schedules = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3_000),
              st.integers(min_value=64, max_value=1518)),
    min_size=1, max_size=10)


def _mk_packet(size, index):
    return Packet(size, dst=MAC_B, src=MAC_A,
                  data=index.to_bytes(4, "big"))


def _run_pair(schedule, quantum=None, latency=LATENCY):
    """Send ``schedule`` from shard 0 to shard 1 over a channel pair
    coupled in-process; returns [(delivery tick, payload index), ...]."""
    sim0, sim1 = Simulation(seed=0), Simulation(seed=1)
    half0 = ChannelHalf(sim0, "link", peer_shard=1,
                        bandwidth_bits_per_sec=BANDWIDTH,
                        delay_ticks=latency)
    half1 = ChannelHalf(sim1, "link", peer_shard=0,
                        bandwidth_bits_per_sec=BANDWIDTH,
                        delay_ticks=latency)
    received = []
    half0.attach(EtherPort("n0.port", lambda p: None))
    half1.attach(EtherPort(
        "n1.port",
        lambda p: received.append((sim1.now,
                                   int.from_bytes(p.data, "big")))))
    sends = []
    when = 0
    for i, (gap, size) in enumerate(schedule):
        when += gap
        sends.append((when, i))
        sim0.events.call_at(
            when, lambda s=size, i=i: half0.port.send(_mk_packet(s, i)),
            name="test.send")
    coupler = InProcessCoupler({
        0: ChannelGroup(sim0, [half0], quantum_ticks=quantum),
        1: ChannelGroup(sim1, [half1], quantum_ticks=quantum),
    })
    # Advance past the last send, then in chunks until both halves are
    # idle (the busy window is bounded by per-frame serialization at
    # line rate — ~130k ticks for a 1518B frame at 100 Gbps — so the
    # chunk cap is generous).
    target = when + 1
    coupler.advance(target)
    chunk = max(4 * latency, 2_000)
    for _ in range(400):
        if half0.in_flight == 0 and half1.in_flight == 0:
            break
        target += chunk
        coupler.advance(target)
    assert half0.in_flight == 0 and half1.in_flight == 0
    assert half0.frames_out == len(schedule) == half1.frames_in
    return sends, received


def _run_etherlink(schedule, latency=LATENCY):
    """The same schedule over a plain single-process EtherLink."""
    sim = Simulation(seed=0)
    link = EtherLink(sim, "link", bandwidth_bits_per_sec=BANDWIDTH,
                     delay_ticks=latency)
    received = []
    port_a = EtherPort("n0.port", lambda p: None)
    port_b = EtherPort(
        "n1.port",
        lambda p: received.append((sim.now,
                                   int.from_bytes(p.data, "big"))))
    link.connect(port_a, port_b)
    when = 0
    for i, (gap, size) in enumerate(schedule):
        when += gap
        sim.events.call_at(
            when, lambda s=size, i=i: port_a.send(_mk_packet(s, i)),
            name="test.send")
    sim.run(until=when + (len(schedule) + 1) * 130_000 + latency)
    return received


@given(schedules)
@settings(max_examples=40, deadline=None)
def test_channel_delivers_in_order(schedule):
    _sends, received = _run_pair(schedule)
    assert [idx for _tick, idx in received] == list(range(len(schedule)))
    ticks = [tick for tick, _idx in received]
    assert ticks == sorted(ticks)


@given(schedules)
@settings(max_examples=40, deadline=None)
def test_channel_never_beats_the_link_latency(schedule):
    sends, received = _run_pair(schedule)
    send_tick = dict((idx, tick) for tick, idx in sends)
    for tick, idx in received:
        assert tick >= send_tick[idx] + LATENCY, \
            f"frame {idx} sent at {send_tick[idx]} arrived at {tick}"


@given(schedules,
       st.integers(min_value=50, max_value=LATENCY))
@settings(max_examples=25, deadline=None)
def test_delivery_ticks_are_quantum_invariant(schedule, quantum):
    """Any epoch length up to the link latency gives the same delivery
    ticks as the largest legal quantum — and as a real EtherLink."""
    _s, at_quantum = _run_pair(schedule, quantum=quantum)
    _s, at_latency = _run_pair(schedule, quantum=None)
    assert at_quantum == at_latency
    assert at_quantum == _run_etherlink(schedule)


def test_one_tick_quantum_matches_etherlink():
    """The degenerate epoch length (one tick) still reproduces the
    single-process delivery ticks — kept deterministic and small since
    it costs one epoch per tick."""
    schedule = [(0, 64), (100, 128), (0, 300)]
    _s, received = _run_pair(schedule, quantum=1, latency=80)
    assert received == _run_etherlink(schedule, latency=80)


@given(st.integers(min_value=64, max_value=1518),
       st.integers(min_value=0, max_value=255))
@settings(max_examples=40, deadline=None)
def test_frame_codec_round_trips(size, tag):
    packet = Packet(size, dst=MAC_B, src=MAC_A, ethertype=0x88B5,
                    data=bytes([tag]), ts_tx=tag * 7, request_id=tag,
                    meta={"flow": tag})
    decoded = decode_frame(encode_frame(packet))
    # Equal in every field except packet_id, a process-local counter.
    decoded.packet_id = packet.packet_id
    assert decoded == packet
    assert decoded.meta == packet.meta


# ----------------------------------------------------------------------
# Protocol-violation paths fail loudly rather than corrupt time.
# ----------------------------------------------------------------------

def test_quantum_above_link_latency_is_rejected():
    sim = Simulation(seed=0)
    half = ChannelHalf(sim, "link", peer_shard=1, delay_ticks=100)
    with pytest.raises(ChannelError, match="exceeds the minimum"):
        ChannelGroup(sim, [half], quantum_ticks=101)


def test_zero_latency_channel_is_rejected():
    sim = Simulation(seed=0)
    with pytest.raises(ValueError, match="positive link latency"):
        ChannelHalf(sim, "link", peer_shard=1, delay_ticks=0)


def test_injecting_into_the_past_is_rejected():
    sim = Simulation(seed=0)
    half = ChannelHalf(sim, "link", peer_shard=1, delay_ticks=100)
    half.attach(EtherPort("n0.port", lambda p: None))
    sim.events.call_at(500, lambda: None, name="test.noop")
    sim.run(until=500)
    with pytest.raises(ChannelError, match="epoch skew"):
        half.inject(400, encode_frame(_mk_packet(64, 0)))


def test_drain_rejects_frames_inside_the_epoch():
    # A frame due at or before the epoch boundary means the quantum
    # exceeded the link latency: drain must refuse to ship it.
    sim = Simulation(seed=0)
    half = ChannelHalf(sim, "link", peer_shard=1, delay_ticks=100)
    half.attach(EtherPort("n0.port", lambda p: None))
    half.transmit(half.port, _mk_packet(64, 0))
    deliver_at = half._outbox[0][0]
    with pytest.raises(ChannelError, match="quantum must not exceed"):
        half.drain(deliver_at)


def test_duplicate_channel_names_are_rejected():
    sim = Simulation(seed=0)
    a = ChannelHalf(sim, "link", peer_shard=1, delay_ticks=100)
    b = ChannelHalf(sim, "link2", peer_shard=1, delay_ticks=100)
    b.name = "link"
    with pytest.raises(ChannelError, match="duplicate channel name"):
        ChannelGroup(sim, [a, b])


def test_double_attach_is_rejected():
    sim = Simulation(seed=0)
    half = ChannelHalf(sim, "link", peer_shard=1, delay_ticks=100)
    port = EtherPort("n0.port", lambda p: None)
    half.attach(port)
    with pytest.raises(RuntimeError, match="already connected"):
        half.attach(port)


# ----------------------------------------------------------------------
# Two simulations coupled in lockstep (the dist-gem5 arrangement).
# ----------------------------------------------------------------------

def _coupled(sim0, sim1, port0, port1, latency, bandwidth=BANDWIDTH):
    """Cable ``port0`` (in ``sim0``) to ``port1`` (in ``sim1``) through a
    channel pair; returns the coupler and both groups."""
    half0 = ChannelHalf(sim0, "link", peer_shard=1,
                        bandwidth_bits_per_sec=bandwidth,
                        delay_ticks=latency)
    half1 = ChannelHalf(sim1, "link", peer_shard=0,
                        bandwidth_bits_per_sec=bandwidth,
                        delay_ticks=latency)
    half0.attach(port0)
    half1.attach(port1)
    groups = {0: ChannelGroup(sim0, [half0]), 1: ChannelGroup(sim1, [half1])}
    return InProcessCoupler(groups), groups


def test_epochs_step_by_the_link_latency():
    sim0, sim1 = Simulation(seed=0), Simulation(seed=1)
    coupler, groups = _coupled(sim0, sim1, EtherPort("a", lambda p: None),
                               EtherPort("b", lambda p: None),
                               latency=us_to_ticks(100))
    coupler.advance(us_to_ticks(1000))
    assert [g.epoch for g in groups.values()] == [10, 10]
    # Lockstep: both shards stop at the same synchronized tick.
    assert sim0.now == sim1.now == us_to_ticks(1000)
    assert all(g.sync_time == us_to_ticks(1000) for g in groups.values())


def test_advance_is_resumable():
    sim0, sim1 = Simulation(seed=0), Simulation(seed=1)
    received = []
    port0 = EtherPort("a", lambda p: None)
    coupler, _groups = _coupled(
        sim0, sim1, port0, EtherPort("b", lambda p: received.append(p)),
        latency=us_to_ticks(200))
    port0.send(_mk_packet(64, 0))
    coupler.advance(us_to_ticks(100))
    assert received == []          # still below the link latency
    coupler.advance(us_to_ticks(1000))
    assert len(received) == 1


def test_echo_round_trip_takes_two_latencies():
    sim0, sim1 = Simulation(seed=0), Simulation(seed=1)
    echoed = []
    port0 = EtherPort("a", lambda p: echoed.append(sim0.now))
    port1 = EtherPort("b", None)
    port1.on_receive = lambda p: port1.send(p.response_to())
    coupler, _groups = _coupled(sim0, sim1, port0, port1,
                                latency=us_to_ticks(100))
    port0.send(Packet(64, dst=MAC_B, src=MAC_A, ts_tx=0))
    coupler.advance(us_to_ticks(1000))
    assert len(echoed) == 1
    assert us_to_ticks(200) <= echoed[0] <= us_to_ticks(201)


def test_testpmd_node_served_from_another_simulation():
    """Fig 1a as dist-gem5 runs it: the TestPMD Test Node in one
    simulation, the EtherLoadGen client in another, the cable between
    them a channel pair synchronized at the link latency."""
    config = gem5_default()
    node = DpdkNode(config, seed=41)
    node.install_app(testpmd.TestPmd)
    client_sim = Simulation(seed=42)
    loadgen = EtherLoadGen(client_sim, "loadgen")
    coupler, _groups = _coupled(
        client_sim, node.sim, loadgen.port, node.nic.port,
        latency=us_to_ticks(config.link_delay_us),
        bandwidth=config.link_bandwidth_bps)
    node.start()
    loadgen.start_synthetic(SyntheticConfig(packet_size=256, rate_gbps=2.0,
                                            count=60))
    coupler.advance(us_to_ticks(3000))
    assert node.app.packets_processed == 60
    assert loadgen.rx_packets == 60
    # The round trip crosses the link latency twice.
    assert loadgen.latency.summary()["min"] >= 2 * config.link_delay_us
    node.sim.invariants.check(final=True)
    client_sim.invariants.check(final=True)


def _same_tick_arrivals(coupled):
    """Two senders reach one receiver on the same tick: a 1500 B frame
    from the far end of the cut link, then (later in the same epoch) a
    64 B frame over a local cable.  Returns the receive order."""
    latency = 1_000_000
    big, small = _mk_packet(1500, 0), _mk_packet(64, 1)
    sim1 = Simulation(seed=1)
    sim0 = Simulation(seed=0) if coupled else sim1
    received = []
    remote = EtherPort("remote", lambda p: None)
    local = EtherPort("local", lambda p: None)
    rx_remote = EtherPort("rx.remote", lambda p: received.append(
        ("remote", sim1.now)))
    rx_local = EtherPort("rx.local", lambda p: received.append(
        ("local", sim1.now)))
    local_link = EtherLink(sim1, "local", bandwidth_bits_per_sec=BANDWIDTH,
                           delay_ticks=latency)
    local_link.connect(local, rx_local)
    # The small frame leaves late enough to arrive on the big frame's
    # tick (both cables share bandwidth and latency).
    small_at = (local_link.serialization_ticks(big)
                - local_link.serialization_ticks(small))
    sim0.events.call_at(0, lambda: remote.send(big), name="test.big")
    sim1.events.call_at(small_at, lambda: local.send(small),
                        name="test.small")
    if coupled:
        coupler, _groups = _coupled(sim0, sim1, remote, rx_remote, latency)
        coupler.advance(4 * latency)
    else:
        EtherLink(sim1, "cut", bandwidth_bits_per_sec=BANDWIDTH,
                  delay_ticks=latency).connect(remote, rx_remote)
        sim1.run(until=4 * latency)
    assert received[0][1] == received[1][1], "arrivals not on one tick"
    return [name for name, _tick in received]


def test_same_tick_reference_order_is_transmit_order():
    assert _same_tick_arrivals(coupled=False) == ["remote", "local"]


@pytest.mark.xfail(strict=True, reason=(
    "known defect (docs/sharding.md): a shard schedules channel frames "
    "at the epoch boundary, after local deliveries scheduled earlier in "
    "the epoch, so same-tick arrivals reorder"))
def test_same_tick_cross_shard_order_matches_single_process():
    assert _same_tick_arrivals(coupled=True) == ["remote", "local"]
