//! Dumps are input from outside the program: nothing in the tree records
//! a `Recovery*` event or submits under the recovery thread-id band any
//! more, but a `PTMTRC01` file written while something did must still
//! load and fold. The buffer here is laid out by hand from the format
//! (`trace::export`): magic, counter block, then per thread
//! `tid:u32 dropped:u64 count:u64` and per event
//! `ts:u64 kind:u8 a:u64 b:u64`, all little-endian.

use obs::{series, spans, GaugeSet};
use trace::export::{chrome_trace_json, read_binary, BINARY_MAGIC, TOTALS};
use trace::{is_recovery_tid, EventKind, RECOVERY_TID};

/// RecoveryBegin, RecoveryLog, RecoveryApply, RecoveryEnd and the retired
/// restart-GC phase event, by their on-disk codes.
const RECOVERY_CODES: [u8; 5] = [14, 18, 15, 16, 19];

fn thread(out: &mut Vec<u8>, tid: u32, events: &[(u64, u8, u64, u64)]) {
    out.extend_from_slice(&tid.to_le_bytes());
    out.extend_from_slice(&0u64.to_le_bytes());
    out.extend_from_slice(&(events.len() as u64).to_le_bytes());
    for &(ts, code, a, b) in events {
        out.extend_from_slice(&ts.to_le_bytes());
        out.push(code);
        out.extend_from_slice(&a.to_le_bytes());
        out.extend_from_slice(&b.to_le_bytes());
    }
}

#[test]
fn a_dump_holding_recovery_events_under_a_band_tid_still_reads_and_folds() {
    let mut buf = BINARY_MAGIC.to_vec();
    buf.extend_from_slice(&(TOTALS.len() as u32).to_le_bytes());
    for _ in 0..TOTALS.len() {
        buf.extend_from_slice(&0u64.to_le_bytes());
    }
    buf.extend_from_slice(&3u32.to_le_bytes());
    // An ordinary worker (TxBegin, TxCommit), so the folds have something
    // to keep.
    thread(&mut buf, 0, &[(100, 0, 0, 0), (180, 5, 2, 0)]);
    // An old recovery worker's stream and the machine-level one: untimed
    // events (ts 0), every recovery code.
    let recovery: Vec<_> = RECOVERY_CODES.iter().map(|&c| (0, c, 7, 9)).collect();
    thread(&mut buf, RECOVERY_TID - 4, &recovery);
    thread(&mut buf, RECOVERY_TID, &recovery);

    let dump = read_binary(&buf).expect("an old dump must still read");
    assert_eq!(dump.threads.len(), 3);
    for t in &dump.threads[1..] {
        assert!(is_recovery_tid(t.tid));
        let codes: Vec<u8> = t.events.iter().map(|e| e.kind as u8).collect();
        assert_eq!(codes, RECOVERY_CODES);
    }
    assert_eq!(dump.threads[2].events[0].kind, EventKind::RecoveryBegin);

    // Every fold takes the dump; recovery events move no gauge and open
    // no span.
    let whole = GaugeSet::of_run(&dump.threads);
    assert_eq!(whole, GaugeSet::of_run(&dump.threads[..1]));
    assert_eq!(whole.commits, 1);
    let rows = series::from_threads(&dump.threads, 1_000);
    assert_eq!(rows, series::from_threads(&dump.threads[..1], 1_000));
    let (ops, dropped) = spans::reconstruct(&dump.threads);
    assert_eq!((ops.len(), dropped), (1, 0));
    assert!(chrome_trace_json(&dump.threads).contains("recovery_begin"));
}
