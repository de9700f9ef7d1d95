//! Trace export: Chrome trace-event JSON (Perfetto-loadable) and a
//! compact binary dump with an embedded counter block.
//!
//! Both formats surface per-thread `dropped_events` loss accounting. The
//! binary dump additionally embeds the live counter totals
//! ([`ExpectedTotals`], captured from the `ptm` and `pmem-sim` counter
//! tables at export time) so an *offline* analyzer can fold the events
//! alone and cross-check the result against what the counters said — the
//! trace and the counters can never silently disagree.

use crate::counters::Field;
use crate::json::Writer;
use crate::{AbortCause, EventKind, GaugeSet, HtmAbortCause, ThreadTrace, TraceEvent};

/// Magic prefix of the binary dump format, version 2.
pub const BINARY_MAGIC: &[u8; 8] = b"PTMTRC02";

/// Where a dump total is captured from: a row of the `ptm` or the
/// `pmem-sim` counter table (see [`crate::counters!`]), by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    Ptm(&'static str),
    Mem(&'static str),
}

/// One total of the dump's counter block: its name in the dump, the live
/// counter it is captured from, and where the analyzer finds it in the
/// whole-run fold of the events alone ([`GaugeSet::of_run`]).
pub struct Total {
    pub name: &'static str,
    pub source: Source,
    pub derive: fn(&GaugeSet) -> u64,
}

/// The counter block, in serialization order: the subset of the live
/// counters that the trace can independently re-derive. Capture
/// ([`ExpectedTotals::from_counters`]), the dump layout and
/// [`crate::analyze::crosscheck`] all walk this one table. A dump
/// records its block's row count and [`read_binary`] rejects any other
/// count, so adding or removing a row needs no new magic; replacing or
/// reordering rows keeps the count and needs a new [`BINARY_MAGIC`].
pub const TOTALS: [Total; 18] = {
    use Source::{Mem, Ptm};
    macro_rules! same_name {
        ($layer:ident $name:ident) => {
            Total {
                name: stringify!($name),
                source: $layer(stringify!($name)),
                derive: |g| g.$name,
            }
        };
    }
    macro_rules! derived {
        ($name:ident, $derive:expr) => {
            Total {
                name: stringify!($name),
                source: Ptm(stringify!($name)),
                derive: $derive,
            }
        };
    }
    macro_rules! by_cause {
        ($name:ident, $field:ident[$cause:expr]) => {
            derived!($name, |g| g.$field[$cause as usize])
        };
    }
    [
        same_name!(Ptm commits),
        derived!(aborts, GaugeSet::aborts_total),
        by_cause!(aborts_read_locked, aborts[AbortCause::ReadLocked]),
        by_cause!(aborts_read_version, aborts[AbortCause::ReadVersion]),
        by_cause!(aborts_acquire, aborts[AbortCause::Acquire]),
        by_cause!(aborts_validation, aborts[AbortCause::Validation]),
        same_name!(Ptm htm_commits),
        derived!(htm_aborts, GaugeSet::htm_aborts_total),
        by_cause!(htm_capacity_aborts, htm_aborts[HtmAbortCause::Capacity]),
        by_cause!(htm_conflict_aborts, htm_aborts[HtmAbortCause::Conflict]),
        by_cause!(htm_explicit_aborts, htm_aborts[HtmAbortCause::Explicit]),
        same_name!(Ptm htm_fallbacks),
        same_name!(Mem clwbs),
        same_name!(Mem clwb_writebacks),
        same_name!(Mem clwb_batches),
        same_name!(Mem sfences),
        same_name!(Mem fence_wait_ns),
        same_name!(Mem wpq_stall_ns),
    ]
};

/// Counter totals captured at export time: one value per [`TOTALS`] row.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExpectedTotals([u64; TOTALS.len()]);

impl ExpectedTotals {
    /// Capture the totals from a run's two counter tables (the
    /// `fields()` of its `PtmStatsSnapshot` and `StatsSnapshot`).
    ///
    /// Panics if a [`TOTALS`] row names a counter its table does not
    /// declare — a renamed counter, caught by the bench crate's tests.
    pub fn from_counters(ptm: &[Field], mem: &[Field]) -> ExpectedTotals {
        ExpectedTotals(TOTALS.each_ref().map(|row| {
            let (fields, counter) = match row.source {
                Source::Ptm(counter) => (ptm, counter),
                Source::Mem(counter) => (mem, counter),
            };
            let field = fields.iter().find(|f| f.name == counter);
            field
                .unwrap_or_else(|| panic!("dump total `{}`: no counter `{counter}`", row.name))
                .value
        }))
    }

    /// `(name, value)` pairs in serialization order.
    pub fn fields(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        TOTALS.iter().zip(self.0).map(|(row, v)| (row.name, v))
    }

    /// All-zero totals except the named ones.
    #[cfg(test)]
    pub(crate) fn with(named: &[(&str, u64)]) -> ExpectedTotals {
        let mut t = ExpectedTotals::default();
        for &(name, v) in named {
            let i = TOTALS.iter().position(|row| row.name == name);
            t.0[i.expect("a TOTALS name")] = v;
        }
        t
    }
}

/// A parsed binary dump.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceDump {
    pub expected: ExpectedTotals,
    pub threads: Vec<ThreadTrace>,
}

impl TraceDump {
    /// Total dropped events across threads.
    pub fn dropped_events(&self) -> u64 {
        self.threads.iter().map(|t| t.dropped).sum()
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.pos + n > self.buf.len() {
            return Err(format!(
                "truncated dump: need {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    /// A record count read from the dump, as a pre-allocation size:
    /// never more than the bytes still unread could hold at
    /// `min_record_bytes` each, so a corrupt count cannot size an
    /// allocation (the per-record reads then fail as truncation).
    fn capacity_for(&self, count: u64, min_record_bytes: usize) -> usize {
        let fits = (self.buf.len() - self.pos) / min_record_bytes;
        count.min(fits as u64) as usize
    }
}

/// Serialized size of a thread record's header (tid, dropped, event
/// count) and of one event (ts, kind, a, b).
const THREAD_HEADER_BYTES: usize = 4 + 8 + 8;
const EVENT_BYTES: usize = 8 + 1 + 8 + 8;

/// Serialize per-thread traces plus the counter block into the compact
/// binary format. Deterministic: identical traces and totals produce
/// byte-identical output (threads are written in tid order).
pub fn write_binary(threads: &[ThreadTrace], expected: &ExpectedTotals) -> Vec<u8> {
    let mut threads: Vec<&ThreadTrace> = threads.iter().collect();
    threads.sort_by_key(|t| t.tid);
    let events: usize = threads.iter().map(|t| t.events.len()).sum();
    let mut out = Vec::with_capacity(
        32 + 16 * 16 + events * EVENT_BYTES + threads.len() * THREAD_HEADER_BYTES,
    );
    out.extend_from_slice(BINARY_MAGIC);
    put_u32(&mut out, TOTALS.len() as u32);
    for v in expected.0 {
        put_u64(&mut out, v);
    }
    put_u32(&mut out, threads.len() as u32);
    for t in threads {
        put_u32(&mut out, t.tid);
        put_u64(&mut out, t.dropped);
        put_u64(&mut out, t.events.len() as u64);
        for ev in &t.events {
            put_u64(&mut out, ev.ts);
            out.push(ev.kind as u8);
            put_u64(&mut out, ev.a);
            put_u64(&mut out, ev.b);
        }
    }
    out
}

/// Parse a binary dump, validating structure, magic and event codes.
pub fn read_binary(buf: &[u8]) -> Result<TraceDump, String> {
    let mut r = Reader { buf, pos: 0 };
    let magic = r.take(8)?;
    if magic != BINARY_MAGIC {
        return Err(format!("bad magic {magic:?} (expected {BINARY_MAGIC:?})"));
    }
    let n_counters = r.u32()? as usize;
    let mut expected = ExpectedTotals::default();
    if n_counters != expected.0.len() {
        return Err(format!("unsupported counter-block size {n_counters}"));
    }
    for v in &mut expected.0 {
        *v = r.u64()?;
    }
    let n_threads = r.u32()?;
    let mut threads = Vec::with_capacity(r.capacity_for(n_threads.into(), THREAD_HEADER_BYTES));
    for _ in 0..n_threads {
        let tid = r.u32()?;
        let dropped = r.u64()?;
        let count = r.u64()?;
        let mut events = Vec::with_capacity(r.capacity_for(count, EVENT_BYTES));
        let mut prev_ts = 0u64;
        for i in 0..count {
            let ts = r.u64()?;
            let code = r.u8()?;
            let kind = EventKind::from_code(code)
                .ok_or_else(|| format!("thread {tid} event {i}: bad kind code {code}"))?;
            let a = r.u64()?;
            let b = r.u64()?;
            if ts < prev_ts {
                return Err(format!(
                    "thread {tid} event {i}: timestamp {ts} < predecessor {prev_ts}"
                ));
            }
            prev_ts = ts;
            events.push(TraceEvent { ts, kind, a, b });
        }
        threads.push(ThreadTrace {
            tid,
            events,
            dropped,
        });
    }
    if r.pos != buf.len() {
        return Err(format!("{} trailing bytes after dump", buf.len() - r.pos));
    }
    Ok(TraceDump { expected, threads })
}

/// A virtual-ns timestamp as fractional Chrome microseconds (ns-exact:
/// 3 decimal places).
fn micros(w: &mut Writer, ns: u64) {
    w.raw(format_args!("{}.{:03}", ns / 1000, ns % 1000));
}

/// Render per-thread traces as Chrome trace-event JSON.
///
/// Load the output in [Perfetto](https://ui.perfetto.dev) ("Open trace
/// file") or `chrome://tracing`. Durationful events (`sfence` waits, WPQ
/// stalls) become complete events (`"ph":"X"`) spanning their wait; all
/// other events are instants (`"ph":"i"`). Per-thread dropped-event
/// counts are surfaced in `otherData.dropped_by_thread` and as metadata
/// on each thread.
pub fn chrome_trace_json(threads: &[ThreadTrace]) -> String {
    let mut threads: Vec<&ThreadTrace> = threads.iter().collect();
    threads.sort_by_key(|t| t.tid);
    let events: usize = threads.iter().map(|t| t.events.len()).sum();
    let mut w = Writer::with_capacity(events * 96);
    w.begin_object();
    w.key("displayTimeUnit").str("ns");
    w.key("otherData").begin_object();
    w.key("dropped_events")
        .u64(threads.iter().map(|t| t.dropped).sum());
    w.key("dropped_by_thread").begin_object();
    for t in &threads {
        w.key(&t.tid.to_string()).u64(t.dropped);
    }
    w.end_object().end_object();
    w.key("traceEvents").begin_array();
    for t in &threads {
        let tid = u64::from(t.tid);
        let name = format!("vthread {}", t.tid);
        w.begin_object();
        w.key("name").str("thread_name");
        w.key("ph").str("M");
        w.key("pid").u64(0);
        w.key("tid").u64(tid);
        w.key("args").begin_object();
        w.key("name").str(&name);
        w.key("dropped_events").u64(t.dropped);
        w.end_object().end_object();
        for ev in &t.events {
            w.begin_object();
            w.key("name").str(ev.kind.label());
            let durationful = matches!(
                ev.kind,
                EventKind::Sfence | EventKind::WpqStall | EventKind::Backoff | EventKind::QueueWait
            );
            if durationful {
                w.key("ph").str("X");
                micros(w.key("dur"), ev.a);
            } else {
                w.key("ph").str("i");
                w.key("s").str("t");
            }
            micros(w.key("ts"), ev.ts);
            w.key("pid").u64(0);
            w.key("tid").u64(tid);
            w.key("args").begin_object();
            w.key("a").u64(ev.a);
            w.key("b").u64(ev.b);
            w.end_object().end_object();
        }
    }
    w.end_array().end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceRing;

    fn sample_threads() -> Vec<ThreadTrace> {
        let mut r0 = TraceRing::new(16);
        r0.record(100, EventKind::TxBegin, 0, 0);
        r0.record(150, EventKind::Clwb, 77, 1);
        r0.record(200, EventKind::Sfence, 50, 0);
        r0.record(300, EventKind::TxCommit, 2, 0);
        let mut r1 = TraceRing::new(2);
        r1.record(110, EventKind::TxBegin, 0, 0);
        r1.record(140, EventKind::TxAbort, 2, 9);
        r1.record(180, EventKind::WpqStall, 40, 9000);
        vec![
            ThreadTrace {
                tid: 0,
                events: r0.ordered(),
                dropped: r0.dropped(),
            },
            ThreadTrace {
                tid: 1,
                events: r1.ordered(),
                dropped: r1.dropped(),
            },
        ]
    }

    #[test]
    fn binary_roundtrips_exactly() {
        let threads = sample_threads();
        let expected = ExpectedTotals::with(&[
            ("commits", 1),
            ("aborts", 1),
            ("clwbs", 1),
            ("sfences", 1),
            ("fence_wait_ns", 50),
            ("wpq_stall_ns", 40),
        ]);
        let bytes = write_binary(&threads, &expected);
        let dump = read_binary(&bytes).expect("roundtrip");
        assert_eq!(dump.expected, expected);
        assert_eq!(dump.threads, threads);
        assert_eq!(dump.dropped_events(), 1, "thread 1's ring dropped one");
        // Re-serializing the parse is byte-identical (determinism).
        assert_eq!(write_binary(&dump.threads, &dump.expected), bytes);
    }

    #[test]
    fn binary_is_deterministic_regardless_of_thread_order() {
        let threads = sample_threads();
        let rev: Vec<ThreadTrace> = threads.iter().rev().cloned().collect();
        let e = ExpectedTotals::default();
        assert_eq!(write_binary(&threads, &e), write_binary(&rev, &e));
    }

    #[test]
    fn reader_rejects_corruption() {
        let bytes = write_binary(&sample_threads(), &ExpectedTotals::default());
        assert!(read_binary(&bytes[..bytes.len() - 1]).is_err(), "truncated");
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(read_binary(&bad_magic).is_err(), "magic");
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(read_binary(&trailing).is_err(), "trailing bytes");
        // Corrupt an event kind code (first event of thread 0 sits after
        // magic + counter block + thread count + tid/dropped/count + ts).
        let kind_off = 8 + 4 + TOTALS.len() * 8 + 4 + (4 + 8 + 8) + 8;
        let mut bad_kind = bytes.clone();
        bad_kind[kind_off] = 200;
        assert!(read_binary(&bad_kind).is_err(), "kind code");
        // A thread count no dump of this size could hold must be
        // rejected, not pre-allocated for (it used to abort the process).
        let threads_off = 8 + 4 + TOTALS.len() * 8;
        let mut bad_threads = bytes.clone();
        bad_threads[threads_off..threads_off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(read_binary(&bad_threads).is_err(), "thread count");

        // Fail-soft as a property: truncation at every offset, and every
        // single-bit flip of the header and of thread 0's whole record,
        // returns Ok or Err — the reader never panics or aborts.
        for len in 0..bytes.len() {
            assert!(read_binary(&bytes[..len]).is_err(), "truncated at {len}");
        }
        let record_end = threads_off + 4 + THREAD_HEADER_BYTES + 4 * EVENT_BYTES;
        let mut rejected = 0;
        for bit in 0..record_end * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            rejected += usize::from(read_binary(&flipped).is_err());
        }
        // Magic, block size, both counts and the kind bytes are checked
        // structure; payload words are free to take any value.
        assert!(rejected > (8 + 4 + 4 + 8) * 8 && rejected < record_end * 8);
    }

    /// Codes 14–16, 18 and 19 were recovery and restart-GC events that
    /// nothing records, and code 17 the deleted group-commit fence join;
    /// a dump holding one is not a dump this format reads. Laid out by
    /// hand: magic, counter block, one thread (`tid:u32 dropped:u64
    /// count:u64`) with a `TxBegin` and then the retired code (`ts:u64
    /// kind:u8 a:u64 b:u64`), all little-endian.
    #[test]
    fn a_dump_holding_a_retired_kind_code_is_an_err() {
        for code in [14u8, 15, 16, 17, 18, 19] {
            let mut buf = BINARY_MAGIC.to_vec();
            put_u32(&mut buf, TOTALS.len() as u32);
            for _ in 0..TOTALS.len() {
                put_u64(&mut buf, 0);
            }
            put_u32(&mut buf, 1);
            put_u32(&mut buf, 0);
            put_u64(&mut buf, 0);
            put_u64(&mut buf, 2);
            for (ts, kind) in [(100, EventKind::TxBegin as u8), (150, code)] {
                put_u64(&mut buf, ts);
                buf.push(kind);
                put_u64(&mut buf, 7);
                put_u64(&mut buf, 9);
            }
            let err = read_binary(&buf).expect_err("a retired code must not read");
            assert!(
                err.contains(&format!("bad kind code {code}")),
                "code {code}: {err}"
            );
            // The same layout with a live code in that slot reads.
            let live = buf.len() - EVENT_BYTES + 8;
            buf[live] = EventKind::TxCommit as u8;
            assert!(read_binary(&buf).is_ok(), "code {code}: layout");
        }
    }

    /// A dump written before group commit's deletion carries one more
    /// total (its fence-join count) than [`TOTALS`]; it reads as an
    /// `Err` naming the block size, never a panic or a misaligned parse.
    #[test]
    fn a_dump_with_the_old_counter_block_is_an_err() {
        let mut buf = BINARY_MAGIC.to_vec();
        put_u32(&mut buf, TOTALS.len() as u32 + 1);
        for _ in 0..=TOTALS.len() {
            put_u64(&mut buf, 0);
        }
        put_u32(&mut buf, 0);
        let err = read_binary(&buf).expect_err("an old counter block must not read");
        assert!(
            err.contains(&format!(
                "unsupported counter-block size {}",
                TOTALS.len() + 1
            )),
            "{err}"
        );
    }

    #[test]
    fn chrome_json_is_structurally_valid_and_loss_accounted() {
        let threads = sample_threads();
        let j = chrome_trace_json(&threads);
        crate::json::check_structure(&j).expect("well-formed");
        assert!(j.contains("\"traceEvents\""));
        assert!(j.contains("\"dropped_events\":1"));
        assert!(j.contains("\"dropped_by_thread\":{\"0\":0,\"1\":1}"));
        // The sfence is a complete event with its wait as the duration.
        assert!(j.contains("\"name\":\"sfence\",\"ph\":\"X\",\"dur\":0.050"));
        // Instants carry the scope field.
        assert!(j.contains("\"name\":\"clwb\",\"ph\":\"i\",\"s\":\"t\""));
        // ns-exact fractional microseconds.
        assert!(j.contains("\"ts\":0.100"));
    }
}
