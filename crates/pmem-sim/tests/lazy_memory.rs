//! Simulated memory costs host memory only where it is touched (DESIGN.md
//! §5 decision 19): a 1 GiB pool with a 1 GiB durable shadow is free
//! until written, and a crash image and its reboot grow with the words
//! that survive, not with the pool; rebuilt in the same shape, a machine
//! reuses the pages its predecessor paid for. The one test is alone in its binary,
//! so no concurrent test allocates while it reads the resident set.

#![cfg(target_os = "linux")]

use pmem_sim::{AdversaryPolicy, DurabilityDomain, Machine, MachineConfig, MediaKind};

const MIB: u64 = 1 << 20;
/// Host page size, and the stride of the stores below.
const PAGE: u64 = 4096;

/// This process's resident set, in bytes.
fn rss() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<u64>().ok())
        .expect("VmRSS line");
    kib * 1024
}

#[test]
fn simulated_memory_is_paid_for_where_it_is_touched() {
    let r0 = rss();
    let m = Machine::new(MachineConfig::functional(DurabilityDomain::Adr));
    let pool = m.alloc_pool("big", 1 << 27, MediaKind::Optane);
    let r1 = rss();
    assert!(
        r1.saturating_sub(r0) < 16 * MIB,
        "a tracked 2^27-word pool made RSS grow by {} MiB before any store",
        r1.saturating_sub(r0) / MIB
    );

    // One store per host page over the pool's first 8 MiB.
    let touched = 8 * MIB;
    for w in (0..touched / 8).step_by((PAGE / 8) as usize) {
        pool.raw_store(w, w + 1);
    }
    let r2 = rss();
    // The pool's first page already holds the allocator's header, so the
    // stores fault one page fewer than they touch.
    assert!(
        (touched - PAGE..=2 * touched).contains(&r2.saturating_sub(r1)),
        "storing to {} MiB grew RSS by {} KiB",
        touched / MIB,
        r2.saturating_sub(r1) / 1024
    );

    // The image and the rebooted pool (words and shadow) each hold the
    // 2048 surviving words; the zeros around them stay unmapped.
    let image = m.crash_with(0, AdversaryPolicy::AllNew);
    let m2 = Machine::reboot(&image, MachineConfig::functional(DurabilityDomain::Adr));
    let r3 = rss();
    assert!(
        r3.saturating_sub(r2) < 4 * touched,
        "crash + reboot of {} MiB of touched words grew RSS by {} MiB",
        touched / MIB,
        r3.saturating_sub(r2) / MIB
    );
    {
        let rebooted = &m2.pools()[0];
        assert_eq!(rebooted.raw_load(PAGE / 8), PAGE / 8 + 1);
        assert_eq!(rebooted.shadow().unwrap().load(PAGE / 8), PAGE / 8 + 1);
        assert_eq!(rebooted.raw_load(PAGE / 8 + 1), 0);
    }

    // Dropped and rebuilt in the same shape, the machine gets its tables
    // back with the pages written above still resident: it reads zero
    // where the old one held data, and storing there again faults nothing.
    drop((m2, image, pool, m));
    let r4 = rss();
    let m = Machine::new(MachineConfig::functional(DurabilityDomain::Adr));
    let pool = m.alloc_pool("big", 1 << 27, MediaKind::Optane);
    for w in (0..touched / 8).step_by((PAGE / 8) as usize) {
        assert_eq!(pool.raw_load(w), 0, "word {w} of a reused table");
        assert_eq!(pool.shadow().unwrap().load(w), 0, "shadow word {w}");
        pool.raw_store(w, w + 1);
    }
    let r5 = rss();
    assert!(
        r5.saturating_sub(r4) < MIB,
        "rebuilding the machine and storing to the same {} MiB grew RSS by {} KiB",
        touched / MIB,
        r5.saturating_sub(r4) / 1024
    );
}
