//! Property-based tests of the simulator's core invariants.

use pmem_sim::bandwidth::{BwServer, Served, BUCKET_NS};
use pmem_sim::cache::{line_key, CacheSim};
use pmem_sim::{DurabilityDomain, Machine, MachineConfig, MediaKind};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// `v` in an arbitrary order (Fisher–Yates under `seed`).
fn shuffled<T: Clone>(v: &[T], seed: u64) -> Vec<T> {
    let mut out = v.to_vec();
    let mut rng = SmallRng::seed_from_u64(seed);
    for i in (1..out.len()).rev() {
        out.swap(i, rng.gen_range(0..=i));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Nondecreasing arrivals — what one thread's clock produces — are
    /// served exactly FIFO: each finishes at `max(now, tail) + service`.
    #[test]
    fn bw_server_in_order_arrivals_are_fifo(
        steps in prop::collection::vec((0u64..300, 1u64..200), 1..60),
    ) {
        let s = BwServer::new();
        let (mut now, mut tail) = (0, 0);
        for &(gap, svc) in &steps {
            now += gap;
            tail = tail.max(now) + svc;
            let g = s.request(now, svc);
            prop_assert_eq!((g.finish, g.backlog, g.served), (tail, tail - now, Served::InOrder));
        }
    }

    /// Whatever order a request set arrives in, the server books exactly
    /// its total service, and no bucket holds more than its length.
    #[test]
    fn bw_server_books_the_same_service_in_every_order(
        reqs in prop::collection::vec((0u64..4_000, 1u64..200), 1..40),
        seed in any::<u64>(),
    ) {
        let total: u64 = reqs.iter().map(|r| r.1).sum();
        for order in [&reqs, &shuffled(&reqs, seed)] {
            let s = BwServer::new();
            for &(now, svc) in order {
                prop_assert_ne!(s.request(now, svc).served, Served::HorizonMiss);
            }
            let tail = s.backlog(0);
            prop_assert_eq!(s.booked_in(0, tail), total);
            for j in 0..tail / BUCKET_NS + 1 {
                prop_assert!(s.booked_in(j * BUCKET_NS, (j + 1) * BUCKET_NS) <= BUCKET_NS);
            }
        }
    }

    /// Requests that do not overlap — and share no bucket, the
    /// calendar's unit of placement — are each served at once, in every
    /// arrival order.
    #[test]
    fn bw_server_disjoint_requests_grant_alike_in_every_order(
        reqs in prop::collection::vec((0u64..4, 0u64..BUCKET_NS, 1u64..100), 1..30)
            .prop_map(|layout| {
                let mut bucket = 0;
                layout
                    .into_iter()
                    .map(|(skip, offset, svc)| {
                        let now = (bucket + skip) * BUCKET_NS + offset;
                        bucket = (now + svc - 1) / BUCKET_NS + 1;
                        (now, svc)
                    })
                    .collect::<Vec<_>>()
            }),
        seed in any::<u64>(),
    ) {
        for order in [&reqs, &shuffled(&reqs, seed)] {
            let s = BwServer::new();
            for &(now, svc) in order {
                prop_assert_eq!(s.request(now, svc).finish, now + svc);
            }
        }
    }

    /// No request is ever granted later than one FIFO tail — the server
    /// before the calendar — would have granted it.
    #[test]
    fn bw_server_never_grants_later_than_fifo(
        reqs in prop::collection::vec((0u64..4_000, 1u64..200), 1..60),
    ) {
        let s = BwServer::new();
        let mut fifo_tail = 0;
        for &(now, svc) in &reqs {
            fifo_tail = fifo_tail.max(now) + svc;
            let g = s.request(now, svc);
            prop_assert!(g.finish <= fifo_tail, "{} > FIFO's {}", g.finish, fifo_tail);
            prop_assert!(g.finish >= now + svc);
        }
    }

    /// After a touch, a line is present; after clwb it is clean but still
    /// present — regardless of interleaving with other keys.
    #[test]
    fn cache_clwb_cleans_but_retains(
        keys in prop::collection::vec((0u32..4, 0u64..256), 1..100),
        probe_pool in 0u32..4,
        probe_line in 0u64..256,
    ) {
        let c = CacheSim::new(1 << 20);
        for &(p, l) in &keys {
            c.access(line_key(p, l), true);
        }
        let k = line_key(probe_pool, probe_line);
        c.access(k, true);
        prop_assert!(c.present(k));
        prop_assert!(c.dirty(k));
        c.clwb(k);
        prop_assert!(c.present(k));
        prop_assert!(!c.dirty(k));
    }

    /// Stores under eADR are always preserved by a crash (any seed); the
    /// same stores under ADR are preserved iff flushed+fenced.
    #[test]
    fn crash_preserves_exactly_the_guaranteed(
        writes in prop::collection::vec((0u64..64, 1u64..u64::MAX), 1..30),
        flush_mask in any::<u32>(),
        seed in any::<u64>(),
    ) {
        for domain in [DurabilityDomain::Adr, DurabilityDomain::Eadr] {
            let m = Machine::new(MachineConfig::functional(domain));
            let p = m.alloc_pool("t", 64, MediaKind::Optane);
            let mut s = m.session(0);
            let mut flushed = std::collections::HashMap::new();
            let mut current = std::collections::HashMap::new();
            for (i, &(w, v)) in writes.iter().enumerate() {
                s.store(p.addr(w), v);
                current.insert(w, v);
                if flush_mask & (1 << (i % 32)) != 0 {
                    s.clwb(p.addr(w));
                    s.sfence();
                    // Everything in the line is now durable at its
                    // current value; coarse model: track per-word.
                    let line = w / 8;
                    for lw in line * 8..(line + 1) * 8 {
                        if let Some(&cv) = current.get(&lw) {
                            flushed.insert(lw, cv);
                        }
                    }
                }
            }
            let img = m.crash(seed);
            for w in 0..64u64 {
                let got = img.pools[0].words[w as usize];
                match domain {
                    DurabilityDomain::Eadr => {
                        // Cache-visible value survives exactly.
                        prop_assert_eq!(got, *current.get(&w).unwrap_or(&0));
                    }
                    DurabilityDomain::Adr => {
                        // Guaranteed: flushed value or a later current
                        // value (the adversary may persist more, never
                        // less, and never an unrelated value).
                        let f = *flushed.get(&w).unwrap_or(&0);
                        let c = *current.get(&w).unwrap_or(&0);
                        prop_assert!(
                            got == f || got == c,
                            "word {} got {} (flushed {}, current {})", w, got, f, c
                        );
                    }
                    _ => unreachable!(),
                }
            }
        }
    }

    /// Reboot from a crash image reproduces the image exactly.
    #[test]
    fn reboot_is_faithful(
        writes in prop::collection::vec((0u64..64, any::<u64>()), 1..30),
        seed in any::<u64>(),
    ) {
        let m = Machine::new(MachineConfig::functional(DurabilityDomain::Eadr));
        let p = m.alloc_pool("t", 64, MediaKind::Optane);
        let mut s = m.session(0);
        for &(w, v) in &writes {
            s.store(p.addr(w), v);
        }
        let img = m.crash(seed);
        let m2 = Machine::reboot(&img, MachineConfig::functional(DurabilityDomain::Eadr));
        let p2 = m2.pool(p.id());
        for w in 0..64u64 {
            prop_assert_eq!(p2.raw_load(w), img.pools[0].words[w as usize]);
        }
    }

    /// Virtual time is monotone and additive for a single thread.
    #[test]
    fn session_time_is_monotone(ops in prop::collection::vec(0u64..3, 1..200)) {
        let m = Machine::new(MachineConfig {
            domain: DurabilityDomain::Adr,
            ..MachineConfig::default()
        });
        let p = m.alloc_pool("t", 1 << 12, MediaKind::Optane);
        let mut s = m.session(0);
        let mut last = 0;
        for (i, &op) in ops.iter().enumerate() {
            let addr = p.addr((i as u64 * 17) % (1 << 11));
            match op {
                0 => { s.load(addr); }
                1 => { s.store(addr, i as u64); }
                _ => { s.clwb(addr); s.sfence(); }
            }
            prop_assert!(s.now() >= last);
            last = s.now();
        }
    }
}
