"""Tests for the memory system and the PEBS sampling unit."""

import random

import pytest

from repro.core.config import MachineConfig, PEBSConfig
from repro.hw.memsys import MemorySystem
from repro.hw.pebs import PEBSUnit, Sample


def make_memsys():
    return MemorySystem(MachineConfig())


class TestMemorySystem:
    def test_cold_access_pays_full_latency(self):
        ms = make_memsys()
        cfg = ms.config
        latency = ms.access(0x100000, False, eip=0)
        expected = (cfg.tlb.miss_penalty + cfg.l1.hit_latency
                    + cfg.l2.hit_latency + cfg.memory_latency)
        assert latency == expected

    def test_warm_access_pays_l1_latency(self):
        ms = make_memsys()
        ms.access(0x100000, False, eip=0)
        assert ms.access(0x100000, False, eip=0) == ms.config.l1.hit_latency

    def test_l2_hit_latency(self):
        ms = make_memsys()
        ms.access(0x100000, False, eip=0)
        # Evict from L1 (16 sets, 8 ways): touch 8 more lines in the same set.
        # L1 set stride = 16 sets * 128B = 2048B.
        for i in range(1, 9):
            ms.access(0x100000 + i * 2048, False, eip=0)
        latency = ms.access(0x100000, False, eip=0)
        assert latency == ms.config.l1.hit_latency + ms.config.l2.hit_latency

    def test_counters(self):
        ms = make_memsys()
        ms.access(0x100000, False, eip=0)
        ms.access(0x100000, True, eip=0)
        counts = ms.sync_counters().counts
        assert counts["LOADS"] == 1
        assert counts["STORES"] == 1
        assert counts["L1D_ACCESS"] == 2
        assert counts["L1D_MISS"] == 1
        assert counts["DTLB_MISS"] == 1

    def test_armed_event_fires_hook_with_eip(self):
        ms = make_memsys()
        fired = []
        ms.arm_event("L1D_MISS", fired.append)
        ms.access(0x100000, False, eip=0xBEEF)
        assert fired == [0xBEEF]
        ms.access(0x100000, False, eip=0xBEEF)  # hit: no event
        assert fired == [0xBEEF]

    def test_only_armed_event_fires(self):
        ms = make_memsys()
        fired = []
        ms.arm_event("DTLB_MISS", fired.append)
        ms.access(0x100000, False, eip=1)  # misses TLB, L1, L2
        assert fired == [1]
        ms.access(0x100000 + 128, False, eip=2)  # same page: TLB hit, L1 miss
        assert fired == [1]

    def test_disarm(self):
        ms = make_memsys()
        fired = []
        ms.arm_event("L1D_MISS", fired.append)
        ms.disarm()
        ms.access(0x100000, False, eip=1)
        assert fired == []

    def test_non_pebs_event_rejected(self):
        ms = make_memsys()
        with pytest.raises(Exception):
            ms.arm_event("CYCLES", lambda e: None)

    def test_prefetcher_hides_sequential_stream(self):
        ms = make_memsys()
        # Sequential scan of 64 lines: after the trigger, prefetches fill L2.
        for i in range(64):
            ms.access(0x200000 + i * 128, False, eip=0)
        ms.sync_counters()
        assert ms.counters.read("PREFETCHES") > 0
        assert ms.counters.read("L2_MISS") < 64

    def test_pollute_minor_clears_l1_and_tlb_not_l2(self):
        ms = make_memsys()
        ms.access(0x100000, False, eip=0)
        ms.pollute_minor()
        assert not ms.l1.contains(0x100000)
        assert not ms.tlb.contains(0x100000)
        assert ms.l2.contains(0x100000)

    def test_pollute_full_clears_l2_too(self):
        ms = make_memsys()
        ms.access(0x100000, False, eip=0)
        ms.pollute_full()
        assert not ms.l2.contains(0x100000)


class TestCounterIdentities:
    """Structural invariants of the hot path: every access translates
    its address exactly once and probes L1 exactly once, so
    ``DTLB_ACCESS == L1D_ACCESS == LOADS + STORES``; L2 is probed
    exactly on L1 misses (prefetch fills bypass the tally), so
    ``L2_ACCESS == L1D_MISS``."""

    @staticmethod
    def assert_identities(counts):
        assert counts["DTLB_ACCESS"] == counts["L1D_ACCESS"]
        assert counts["L1D_ACCESS"] == counts["LOADS"] + counts["STORES"]
        assert counts["L2_ACCESS"] == counts["L1D_MISS"]

    def test_random_mixed_traffic(self):
        ms = make_memsys()
        rng = random.Random(42)
        for _ in range(5000):
            addr = 0x100000 + rng.randrange(0, 1 << 22, 4)
            ms.access(addr, rng.random() < 0.3, eip=addr)
        counts = ms.sync_counters().counts
        self.assert_identities(counts)
        # The traffic really exercised every level.
        assert counts["L1D_MISS"] > 0
        assert counts["L2_MISS"] > 0
        assert counts["DTLB_MISS"] > 0

    def test_identities_survive_pollution(self):
        ms = make_memsys()
        for i in range(64):
            ms.access(0x100000 + i * 128, False, eip=0)
        ms.pollute_minor()
        for i in range(64):
            ms.access(0x100000 + i * 128, True, eip=0)
        ms.pollute_full()
        ms.access(0x100000, False, eip=0)
        self.assert_identities(ms.sync_counters().counts)

    def test_identities_hold_after_guest_run(self):
        from repro.harness.runner import RunSpec, execute
        result = execute(RunSpec(benchmark="fop", monitoring=True))
        self.assert_identities(result.counters)

    def test_l1_cold_set_probe_within_warm_page(self):
        """Edge case: an access whose L1 set has never been touched
        (empty way list) but whose page is already in the TLB — it must
        pay the full L1-miss + L2-miss latency with *no* TLB penalty,
        and count one L1 miss, not a DTLB miss."""
        ms = make_memsys()
        cfg = ms.config
        ms.access(0x100000, False, eip=0)          # cold: TLB+L1+L2 miss
        # +128 = next line, next (empty) L1 set, same 4 KB page.
        latency = ms.access(0x100000 + 128, False, eip=0)
        assert latency == (cfg.l1.hit_latency + cfg.l2.hit_latency
                           + cfg.memory_latency)
        counts = ms.sync_counters().counts
        assert counts["DTLB_MISS"] == 1            # only the first access
        assert counts["L1D_MISS"] == 2
        self.assert_identities(counts)


class TestAccessRun:
    """The bulk path (``access_run_segments``) must be a pure batching
    of ``access``: same latency total, same counters, same armed-hook
    firings in the same order, for any traffic."""

    @staticmethod
    def random_traffic(n=2000, seed=9):
        rng = random.Random(seed)
        addrs, writes, eips = [], [], []
        for i in range(n):
            addrs.append(0x100000 + rng.randrange(0, 1 << 20, 4))
            writes.append(rng.random() < 0.3)
            eips.append(i)
        return addrs, writes, eips

    def test_batch_matches_singles(self):
        addrs, writes, eips = self.random_traffic()
        single, batch = make_memsys(), make_memsys()
        fired_single, fired_batch = [], []
        single.arm_event("L1D_MISS", fired_single.append)
        batch.arm_event("L1D_MISS", fired_batch.append)

        total_single = sum(single.access(a, w, eip=e)
                           for a, w, e in zip(addrs, writes, eips))
        total_batch = 0
        for i in range(0, len(addrs), 7):  # uneven chunks
            total_batch += batch.access_run_segments(
                ((addrs[i:i + 7], writes[i:i + 7], eips[i:i + 7], 0),))
        assert total_batch == total_single
        assert fired_batch == fired_single
        assert batch.sync_counters().counts == single.sync_counters().counts

    def test_segments_match_flat(self):
        addrs, writes, eips = self.random_traffic(n=500, seed=4)
        flat, seg = make_memsys(), make_memsys()
        total_flat = flat.access_run_segments(((addrs, writes, eips, 0),))
        # Same traffic as three segments sharing metadata lists, each
        # consuming from its own ``start`` offset (the shape the
        # superblock driver produces when draining pending segments).
        segments = [(addrs[0:200], writes, eips, 0),
                    (addrs[200:450], writes, eips, 200),
                    (addrs[450:], writes, eips, 450)]
        total_seg = seg.access_run_segments(segments)
        assert total_seg == total_flat
        assert seg.sync_counters().counts == flat.sync_counters().counts

    @pytest.mark.parametrize("position", range(5))
    def test_armed_sample_lands_on_each_batch_position(self, position):
        """An armed event raised by the j-th access of a batch must
        report that access's EIP — for every j, including first/last."""
        k = 5
        ms = make_memsys()
        addrs = [0x100000 + i * 128 for i in range(k)]
        for a in addrs:
            ms.access(a, False, eip=0)      # warm: batch would all hit
        addrs[position] = 0x100000 + (64 + position) * 128  # cold line
        eips = [0x5000 + i for i in range(k)]
        fired = []
        ms.arm_event("L1D_MISS", fired.append)
        ms.access_run_segments(((addrs, [False] * k, eips, 0),))
        assert fired == [eips[position]]

    def test_empty_batch(self):
        ms = make_memsys()
        assert ms.access_run_segments((([], [], [], 0),)) == 0
        assert ms.access_run_segments(()) == 0
        assert ms.sync_counters().counts["L1D_ACCESS"] == 0


class TestPEBS:
    def make_unit(self, interval=10, **cfg_overrides):
        cfg = PEBSConfig(**cfg_overrides)
        costs = []
        batches = []
        unit = PEBSUnit(cfg, costs.append, batches.append,
                        rng=random.Random(7))
        unit.configure("L1D_MISS", interval)
        return unit, costs, batches

    def test_samples_roughly_every_interval(self):
        unit, _, batches = self.make_unit(interval=10, ds_capacity=1000,
                                          watermark=1.0)
        for i in range(1000):
            unit.on_event(eip=i)
        unit.flush()
        total = sum(len(b) for b in batches)
        assert 80 <= total <= 120  # 1000/10 with jitter

    def test_interval_randomization_varies_countdowns(self):
        unit, _, batches = self.make_unit(interval=100, ds_capacity=10000,
                                          watermark=1.0)
        for i in range(20000):
            unit.on_event(eip=i)
        unit.flush()
        eips = [s.eip for b in batches for s in b]
        gaps = {b - a for a, b in zip(eips, eips[1:])}
        assert len(gaps) > 1  # not a fixed stride

    def test_watermark_interrupt(self):
        unit, _, batches = self.make_unit(interval=1, ds_capacity=10,
                                          watermark=0.5)
        for i in range(5):
            unit.on_event(eip=i)
        assert len(batches) == 1
        assert len(batches[0]) == 5

    def test_microcode_and_interrupt_costs_charged(self):
        unit, costs, _ = self.make_unit(interval=1, ds_capacity=10,
                                        watermark=0.5, microcode_cost=40,
                                        interrupt_cost=2000,
                                        kernel_copy_cost=8)
        for i in range(5):
            unit.on_event(eip=i)
        # 5 microcode saves + 1 interrupt + 5 kernel copies.
        assert sum(costs) == 5 * 40 + 2000 + 5 * 8

    def test_sample_records_eip(self):
        unit, _, batches = self.make_unit(interval=1)
        unit.on_event(eip=0xCAFE)
        unit.flush()
        assert batches[0][0].eip == 0xCAFE

    def test_stop_disables_sampling(self):
        unit, _, batches = self.make_unit(interval=1)
        unit.stop()
        unit.on_event(eip=1)
        unit.flush()
        assert batches == []

    def test_overrun_drops_samples(self):
        cfg = PEBSConfig(ds_capacity=4, watermark=2.0)  # interrupt never fires
        unit = PEBSUnit(cfg, lambda c: None, lambda b: None,
                        rng=random.Random(1))
        unit.configure("L1D_MISS", 1)
        for i in range(10):
            unit.on_event(eip=i)
        assert unit.samples_dropped == 6
        assert unit.pending == 4

    def test_set_interval_adjusts_future_countdown(self):
        unit, _, batches = self.make_unit(interval=1000, ds_capacity=10000,
                                          watermark=1.0)
        unit.set_interval(5)
        for i in range(100):
            unit.on_event(eip=i)
        unit.flush()
        assert sum(len(b) for b in batches) >= 10

    def test_rejects_zero_interval(self):
        unit, _, _ = self.make_unit()
        with pytest.raises(ValueError):
            unit.configure("L1D_MISS", 0)
        with pytest.raises(ValueError):
            unit.set_interval(0)

    def test_rejects_non_pebs_event(self):
        unit, _, _ = self.make_unit()
        with pytest.raises(Exception):
            unit.configure("INSTRUCTIONS", 100)

    def test_sample_is_40_bytes_nominal(self):
        assert PEBSConfig().sample_bytes == 40
        assert Sample(1).eip == 1


class TestIntervalRandomizationBias:
    """Section 6.1: randomizing the low interval bits prevents "measuring
    biased results by sampling at the same locations over and over".

    The adversarial input: two event sources strictly alternating (EIPs
    A, B, A, B, ...).  An exact *even* interval aliases with the
    pattern and only ever samples one of them; the randomized interval
    samples both.
    """

    def run_unit(self, randomize_bits, interval=10, events=4000):
        import random
        from collections import Counter

        taken = []
        cfg = PEBSConfig(ds_capacity=100_000, watermark=1.0,
                         randomize_bits=randomize_bits)
        unit = PEBSUnit(cfg, lambda c: None, lambda b: None,
                        rng=random.Random(11))
        unit.configure("L1D_MISS", interval)
        orig_append = unit._ds_buffer
        for i in range(events):
            eip = 0xA000 if i % 2 == 0 else 0xB000
            unit.on_event(eip)
        counts = Counter(s.eip for s in unit._ds_buffer)
        return counts

    def test_exact_even_interval_aliases(self):
        counts = self.run_unit(randomize_bits=0)
        # All samples land on one EIP: total bias.
        assert len(counts) == 1

    def test_randomized_interval_covers_both_sources(self):
        counts = self.run_unit(randomize_bits=8)
        assert len(counts) == 2
        a, b = counts[0xA000], counts[0xB000]
        assert min(a, b) > 0.2 * max(a, b)  # roughly balanced
