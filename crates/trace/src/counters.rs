//! Declarative counter tables: each layer declares its counters once,
//! with [`counters!`](crate::counters!), and everything that used to be
//! copied per counter — the live atomics, the plain snapshot,
//! `snapshot`/`reset`/`delta_since`/`merge`, the JSON report block and
//! the trace dump's embedded totals — is derived from that one table.

/// How a counter combines across snapshots and shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// An event count or a time total: deltas subtract, merges add.
    Sum,
    /// A high-water mark: deltas and merges keep the larger value.
    Max,
}

/// When a counter appears in a JSON report block. The gated forms keep
/// runs that never exercise a feature on the exact line they emitted
/// before the feature existed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Emit {
    Always,
    /// Only when this counter is nonzero.
    NonZero,
    /// Only when some counter of the named group is nonzero.
    NonZeroWith(&'static str),
}

/// One row of a counter table together with its value in one snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Field {
    pub name: &'static str,
    pub kind: Kind,
    pub emit: Emit,
    pub value: u64,
}

/// True when some counter gated on `group` is nonzero.
pub fn group_nonzero(fields: &[Field], group: &str) -> bool {
    fields
        .iter()
        .any(|f| matches!(f.emit, Emit::NonZeroWith(g) if g == group) && f.value > 0)
}

/// The fields a report block carries, in declared order.
pub fn emitted(fields: &[Field]) -> impl Iterator<Item = &Field> {
    fields.iter().filter(move |f| match f.emit {
        Emit::Always => true,
        Emit::NonZero => f.value > 0,
        Emit::NonZeroWith(group) => group_nonzero(fields, group),
    })
}

/// Declare one layer's counter table.
///
/// ```
/// trace::counters! {
///     /// Live counters (relaxed atomics, bumped on the hot path).
///     live Live;
///     /// Plain-value snapshot.
///     snapshot Snap;
///     /// Events seen.
///     events: Sum, Always;
///     /// Deepest queue seen.
///     depth_max: Max, NonZero;
/// }
/// let live = Live::new();
/// live.events.fetch_add(3, std::sync::atomic::Ordering::Relaxed);
/// let snap: Snap = live.snapshot();
/// assert_eq!(snap.events, 3);
/// assert_eq!(snap.fields()[1].name, "depth_max");
/// ```
///
/// Rows are listed in the order report blocks emit them. The macro
/// generates the live struct (one `pub AtomicU64` per row, so hot paths
/// keep bumping a named field), the `Copy` snapshot struct with the same
/// field names as `u64`, and on them `new`/`snapshot`/`reset` and
/// `delta_since`/`merge`/`fields`. Adding a counter is adding a row.
#[macro_export]
macro_rules! counters {
    (
        $(#[$live_meta:meta])* live $Live:ident;
        $(#[$snap_meta:meta])* snapshot $Snap:ident;
        $( $(#[$meta:meta])* $name:ident: $kind:ident, $emit:expr; )+
    ) => {
        $(#[$live_meta])*
        #[derive(Debug, Default)]
        pub struct $Live {
            $( $(#[$meta])* pub $name: ::std::sync::atomic::AtomicU64, )+
        }

        $(#[$snap_meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $Snap {
            $( $(#[$meta])* pub $name: u64, )+
        }

        impl $Live {
            pub fn new() -> Self {
                Self::default()
            }

            /// Capture the current values.
            pub fn snapshot(&self) -> $Snap {
                $Snap {
                    $( $name: self.$name.load(::std::sync::atomic::Ordering::Relaxed), )+
                }
            }

            /// Zero every counter (between benchmark phases).
            pub fn reset(&self) {
                $( self.$name.store(0, ::std::sync::atomic::Ordering::Relaxed); )+
            }
        }

        impl $Snap {
            /// Every row with its value, in declared (report) order.
            pub fn fields(&self) -> [$crate::counters::Field; [$(stringify!($name)),+].len()] {
                #[allow(unused_imports)]
                use $crate::counters::Emit::*;
                [$( $crate::counters::Field {
                    name: stringify!($name),
                    kind: $crate::counters::Kind::$kind,
                    emit: $emit,
                    value: self.$name,
                }, )+]
            }

            /// Difference against an earlier snapshot: sums subtract —
            /// saturating, so a `reset` racing between the two snapshots
            /// cannot panic the reporter — and high-water marks keep the
            /// larger value.
            pub fn delta_since(&self, earlier: &$Snap) -> $Snap {
                $Snap {
                    $( $name: $crate::counters!(@delta $kind, self.$name, earlier.$name), )+
                }
            }

            /// Accumulate another instance's counters into this snapshot
            /// (shard aggregation): sums add, high-water marks keep the
            /// larger value.
            pub fn merge(&mut self, other: &$Snap) {
                $( $crate::counters!(@merge $kind, self.$name, other.$name); )+
            }
        }
    };
    (@delta Sum, $now:expr, $earlier:expr) => { $now.saturating_sub($earlier) };
    (@delta Max, $now:expr, $earlier:expr) => { $now.max($earlier) };
    (@merge Sum, $a:expr, $b:expr) => { $a += $b };
    (@merge Max, $a:expr, $b:expr) => { $a = $a.max($b) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    crate::counters! {
        live Live;
        snapshot Snap;
        /// A plain event count.
        events: Sum, Always;
        /// A high-water mark.
        peak: Max, Always;
        solo: Sum, NonZero;
        pair_a: Sum, NonZeroWith("pair");
        pair_b: Max, NonZeroWith("pair");
    }

    /// One Sum row and one Max row through every generated combinator.
    #[test]
    fn sum_and_max_rows_drive_delta_merge_and_reset() {
        let live = Live::new();
        live.events.fetch_add(10, Ordering::Relaxed);
        live.peak.fetch_max(7, Ordering::Relaxed);
        let a = live.snapshot();
        live.events.fetch_add(5, Ordering::Relaxed);
        live.peak.fetch_max(4, Ordering::Relaxed); // smaller: ignored
        let b = live.snapshot();
        assert_eq!((b.events, b.peak), (15, 7));

        let d = b.delta_since(&a);
        assert_eq!(d.events, 5, "Sum: subtract");
        assert_eq!(d.peak, 7, "Max: keep the larger");

        let mut m = a;
        m.merge(&Snap {
            events: 1,
            peak: 9,
            ..Snap::default()
        });
        assert_eq!(m.events, 11, "Sum: add");
        assert_eq!(m.peak, 9, "Max: keep the larger");

        live.reset();
        assert_eq!(live.snapshot(), Snap::default());
        let after_reset = live.snapshot().delta_since(&b);
        assert_eq!(after_reset.events, 0, "Sum saturates across a reset");
        assert_eq!(after_reset.peak, 7, "Max survives a reset");
    }

    #[test]
    fn fields_follow_declared_order_and_gates() {
        let names =
            |s: &Snap| -> Vec<&'static str> { emitted(&s.fields()).map(|f| f.name).collect() };
        let mut s = Snap::default();
        assert_eq!(
            s.fields().map(|f| f.name),
            ["events", "peak", "solo", "pair_a", "pair_b"]
        );
        assert_eq!(s.fields()[1].kind, Kind::Max);
        assert_eq!(names(&s), ["events", "peak"]);
        s.solo = 1;
        assert_eq!(names(&s), ["events", "peak", "solo"]);
        s.pair_b = 2;
        assert!(group_nonzero(&s.fields(), "pair"));
        assert_eq!(names(&s), ["events", "peak", "solo", "pair_a", "pair_b"]);
    }
}
