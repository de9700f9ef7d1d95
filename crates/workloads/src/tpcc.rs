//! Write-only TPCC (paper Fig. 3 middle row, Tables I–III), after the
//! DudeTM port: the write-heavy NEW-ORDER and PAYMENT transactions over a
//! small warehouse count, with the order index either a B+Tree or a Hash
//! Table — the paper's two TPCC variants.
//!
//! Contention structure matches real TPCC: the per-district `next_o_id`
//! counter and the per-warehouse YTD fields are the hot spots, which is
//! what drives the commit/abort ratios of Tables I and II.

use pmem_sim::PAddr;
use pstructs::{BpTree, PHashMap};
use ptm::{Tx, TxResult, TxThread};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::driver::Workload;

/// Which structure indexes orders: the paper's two TPCC variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    BTree,
    Hash,
}

/// Order index dispatch.
#[derive(Clone, Copy)]
enum OrderIndex {
    BTree(BpTree),
    Hash(PHashMap),
}

impl OrderIndex {
    fn insert(&self, tx: &mut Tx<'_>, key: u64, val: u64) -> TxResult<()> {
        match self {
            OrderIndex::BTree(t) => t.insert(tx, key, val).map(|_| ()),
            OrderIndex::Hash(h) => h.insert(tx, key, val).map(|_| ()),
        }
    }

    fn get(&self, tx: &mut Tx<'_>, key: u64) -> TxResult<Option<u64>> {
        match self {
            OrderIndex::BTree(t) => t.get(tx, key),
            OrderIndex::Hash(h) => h.get(tx, key),
        }
    }
}

/// Flat record geometry (words).
const WH_WORDS: u64 = 4; // [ytd, tax, ..]
const WH_YTD: u64 = 0;
const WH_TAX: u64 = 1;
const DIST_WORDS: u64 = 8; // [next_o_id, ytd, tax, ..]
const D_NEXT_O_ID: u64 = 0;
const D_YTD: u64 = 1;
const CUST_WORDS: u64 = 8; // [balance, ytd_payment, payment_cnt, discount, ..]
const C_BALANCE: u64 = 0;
const C_YTD: u64 = 1;
const C_CNT: u64 = 2;
const C_DISCOUNT: u64 = 3;
const ITEM_WORDS: u64 = 4; // [price, ..]
const I_PRICE: u64 = 0;
const STOCK_WORDS: u64 = 4; // [quantity, ytd, order_cnt, ..]
const S_QTY: u64 = 0;
const S_YTD: u64 = 1;
const S_CNT: u64 = 2;

const DISTRICTS: u64 = 10;

/// The TPCC workload.
pub struct Tpcc {
    warehouses: u64,
    customers_per_district: u64,
    items: u64,
    kind: IndexKind,
    expected_orders: u64,
    /// Percentage of read transactions (ORDER-STATUS / STOCK-LEVEL);
    /// 0 = the paper's write-only configuration.
    read_pct: u64,

    wh: Option<PAddr>,
    dist: Option<PAddr>,
    cust: Option<PAddr>,
    item: Option<PAddr>,
    stock: Option<PAddr>,
    index: Option<OrderIndex>,
}

impl Tpcc {
    /// `expected_orders` sizes the heap for inserted orders (pass the
    /// planned total operation count).
    pub fn new(kind: IndexKind, warehouses: u64, expected_orders: u64) -> Self {
        Tpcc {
            warehouses,
            customers_per_district: 384,
            items: 1024,
            kind,
            expected_orders,
            read_pct: 0,
            wh: None,
            dist: None,
            cust: None,
            item: None,
            stock: None,
            index: None,
        }
    }

    /// Enable the standard mix's read transactions (the paper runs 0%).
    pub fn with_reads(
        kind: IndexKind,
        warehouses: u64,
        expected_orders: u64,
        read_pct: u64,
    ) -> Self {
        assert!(read_pct <= 100);
        Tpcc {
            read_pct,
            ..Self::new(kind, warehouses, expected_orders)
        }
    }

    fn order_key(&self, w: u64, d: u64, o_id: u64) -> u64 {
        ((w * DISTRICTS + d) << 32) | o_id
    }
}

impl Workload for Tpcc {
    fn name(&self) -> String {
        match self.kind {
            IndexKind::BTree => "tpcc-btree".into(),
            IndexKind::Hash => "tpcc-hash".into(),
        }
    }

    fn heap_words(&self) -> usize {
        let w = self.warehouses;
        let fixed = w * WH_WORDS
            + w * DISTRICTS * DIST_WORDS
            + w * DISTRICTS * self.customers_per_district * CUST_WORDS
            + self.items * ITEM_WORDS
            + w * self.items * STOCK_WORDS;
        // order block ~ 8 + 15*4 words + index node.
        let per_order = 96u64;
        ((fixed + self.expected_orders * per_order) as usize + (1 << 16)).next_power_of_two()
    }

    fn setup(&mut self, th: &mut TxThread) {
        let w = self.warehouses;
        let cust_n = w * DISTRICTS * self.customers_per_district;
        // Fixed tables as flat arrays (one alloc each, initialized
        // transactionally in chunks to keep redo logs bounded).
        let heap = std::sync::Arc::clone(th.heap());
        let wh = heap.alloc(th.session_mut(), (w * WH_WORDS) as usize);
        let dist = heap.alloc(th.session_mut(), (w * DISTRICTS * DIST_WORDS) as usize);
        let cust = heap.alloc(th.session_mut(), (cust_n * CUST_WORDS) as usize);
        let item = heap.alloc(th.session_mut(), (self.items * ITEM_WORDS) as usize);
        let stock = heap.alloc(th.session_mut(), (w * self.items * STOCK_WORDS) as usize);
        for wi in 0..w {
            th.run(|tx| {
                tx.write_at(wh, wi * WH_WORDS + WH_YTD, 0)?;
                tx.write_at(wh, wi * WH_WORDS + WH_TAX, 7)?;
                for d in 0..DISTRICTS {
                    let b = (wi * DISTRICTS + d) * DIST_WORDS;
                    tx.write_at(dist, b + D_NEXT_O_ID, 1)?;
                    tx.write_at(dist, b + D_YTD, 0)?;
                }
                Ok(())
            });
        }
        for chunk in 0..cust_n.div_ceil(64) {
            th.run(|tx| {
                for c in chunk * 64..((chunk + 1) * 64).min(cust_n) {
                    let b = c * CUST_WORDS;
                    tx.write_at(cust, b + C_BALANCE, 1_000)?;
                    tx.write_at(cust, b + C_DISCOUNT, c % 50)?;
                }
                Ok(())
            });
        }
        for chunk in 0..self.items.div_ceil(64) {
            th.run(|tx| {
                for i in chunk * 64..((chunk + 1) * 64).min(self.items) {
                    tx.write_at(item, i * ITEM_WORDS + I_PRICE, 100 + i % 900)?;
                }
                Ok(())
            });
        }
        let stock_n = w * self.items;
        for chunk in 0..stock_n.div_ceil(64) {
            th.run(|tx| {
                for s in chunk * 64..((chunk + 1) * 64).min(stock_n) {
                    tx.write_at(stock, s * STOCK_WORDS + S_QTY, 100)?;
                }
                Ok(())
            });
        }
        let index = match self.kind {
            IndexKind::BTree => OrderIndex::BTree(th.run(BpTree::create)),
            IndexKind::Hash => OrderIndex::Hash(
                th.run(|tx| PHashMap::create(tx, (self.expected_orders / 2).max(1024) as usize)),
            ),
        };
        self.wh = Some(wh);
        self.dist = Some(dist);
        self.cust = Some(cust);
        self.item = Some(item);
        self.stock = Some(stock);
        self.index = Some(index);
    }

    fn op(&self, th: &mut TxThread, rng: &mut SmallRng, tid: usize, i: u64) {
        // Warehouse selection is uniform (like the DudeTM port), so some
        // cross-thread conflict exists at every thread count — the paper's
        // Tables I/II show finite ratios even at 2 threads.
        let _ = tid;
        let w = rng.gen_range(0..self.warehouses);
        self.op_at_warehouse(th, rng, w, i);
    }
}

impl Tpcc {
    /// One TPCC operation with the home warehouse pinned to `w` — the
    /// sharded driver routes requests by home warehouse, so the warehouse
    /// is an input there, not a random draw.
    pub fn op_at_warehouse(&self, th: &mut TxThread, rng: &mut SmallRng, w: u64, i: u64) {
        let wh = self.wh.expect("setup");
        let dist = self.dist.expect("setup");
        let cust = self.cust.expect("setup");
        let item = self.item.expect("setup");
        let stock = self.stock.expect("setup");
        let index = self.index.expect("setup");
        assert!(w < self.warehouses, "warehouse {w} out of range");
        let d = rng.gen_range(0..DISTRICTS);
        let c = rng.gen_range(0..self.warehouses * DISTRICTS * self.customers_per_district);
        if rng.gen_range(0..100) < self.read_pct {
            if rng.gen_bool(0.5) {
                // ORDER-STATUS: look up a recent order and read its lines.
                th.run(|tx| {
                    let db = (w * DISTRICTS + d) * DIST_WORDS;
                    let next = tx.read_at(dist, db + D_NEXT_O_ID)?;
                    if next <= 1 {
                        return Ok(0);
                    }
                    let o_id = 1 + (c % (next - 1));
                    let mut sum = 0;
                    if let Some(order) = index.get(tx, self.order_key(w, d, o_id))? {
                        let order = PAddr(order);
                        let ol_cnt = tx.read_at(order, 3)?;
                        sum += tx.read_at(order, 4)?;
                        for l in 0..ol_cnt {
                            sum += tx.read_at(order, 8 + l * 4 + 2)?;
                        }
                    }
                    Ok(sum)
                });
            } else {
                // STOCK-LEVEL: count low-stock items in the district.
                let base_item = rng.gen_range(0..self.items.saturating_sub(20).max(1));
                th.run(|tx| {
                    let mut low = 0;
                    for it in base_item..(base_item + 20).min(self.items) {
                        let sb = (w * self.items + it) * STOCK_WORDS;
                        if tx.read_at(stock, sb + S_QTY)? < 25 {
                            low += 1;
                        }
                    }
                    Ok(low)
                });
            }
            return;
        }
        if i.is_multiple_of(2) {
            // NEW-ORDER.
            let ol_cnt = rng.gen_range(5..=15u64);
            let item_ids: Vec<u64> = (0..ol_cnt).map(|_| rng.gen_range(0..self.items)).collect();
            th.run(|tx| {
                // Every row this order reads is known before its first
                // access: a host-only hint, so the simulator's own cold
                // lines behind them arrive together instead of one
                // miss per read.
                tx.expect_read(cust.offset(c * CUST_WORDS + C_DISCOUNT), 1);
                for &i_id in &item_ids {
                    tx.expect_read(item.offset(i_id * ITEM_WORDS + I_PRICE), 1);
                    let sb = (w * self.items + i_id) * STOCK_WORDS;
                    tx.expect_read(stock.offset(sb + S_QTY), 3);
                }
                let tax = tx.read_at(wh, w * WH_WORDS + WH_TAX)?;
                let db = (w * DISTRICTS + d) * DIST_WORDS;
                let o_id = tx.read_at(dist, db + D_NEXT_O_ID)?;
                tx.write_at(dist, db + D_NEXT_O_ID, o_id + 1)?;
                let discount = tx.read_at(cust, c * CUST_WORDS + C_DISCOUNT)?;
                let order = tx.alloc((8 + ol_cnt * 4) as usize);
                tx.write_at(order, 0, o_id)?;
                tx.write_at(order, 1, (w << 8) | d)?;
                tx.write_at(order, 2, c)?;
                tx.write_at(order, 3, ol_cnt)?;
                let mut total = 0u64;
                for (l, &i_id) in item_ids.iter().enumerate() {
                    let price = tx.read_at(item, i_id * ITEM_WORDS + I_PRICE)?;
                    let sb = (w * self.items + i_id) * STOCK_WORDS;
                    let q = tx.read_at(stock, sb + S_QTY)?;
                    let nq = if q > 10 { q - 5 } else { q + 91 };
                    tx.write_at(stock, sb + S_QTY, nq)?;
                    let sy = tx.read_at(stock, sb + S_YTD)?;
                    tx.write_at(stock, sb + S_YTD, sy + 5)?;
                    let sc = tx.read_at(stock, sb + S_CNT)?;
                    tx.write_at(stock, sb + S_CNT, sc + 1)?;
                    let lb = 8 + l as u64 * 4;
                    let amount = 5 * price;
                    tx.write_at(order, lb, i_id)?;
                    tx.write_at(order, lb + 1, 5)?;
                    tx.write_at(order, lb + 2, amount)?;
                    total += amount;
                }
                let _ = (tax, discount);
                tx.write_at(order, 4, total)?;
                index.insert(tx, self.order_key(w, d, o_id), order.0)
            });
        } else {
            // PAYMENT.
            let amount = rng.gen_range(1..=500u64);
            th.run(|tx| {
                // Host-only hint, as in NEW-ORDER: the customer row is
                // read after the warehouse and district updates.
                tx.expect_read(cust.offset(c * CUST_WORDS + C_BALANCE), 3);
                let wb = w * WH_WORDS;
                let ytd = tx.read_at(wh, wb + WH_YTD)?;
                tx.write_at(wh, wb + WH_YTD, ytd + amount)?;
                let db = (w * DISTRICTS + d) * DIST_WORDS;
                let dy = tx.read_at(dist, db + D_YTD)?;
                tx.write_at(dist, db + D_YTD, dy + amount)?;
                let cb = c * CUST_WORDS;
                let bal = tx.read_at(cust, cb + C_BALANCE)?;
                tx.write_at(cust, cb + C_BALANCE, bal.wrapping_sub(amount))?;
                let cy = tx.read_at(cust, cb + C_YTD)?;
                tx.write_at(cust, cb + C_YTD, cy + amount)?;
                let cc = tx.read_at(cust, cb + C_CNT)?;
                tx.write_at(cust, cb + C_CNT, cc + 1)?;
                Ok(())
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{run_scenario, RunConfig, Scenario};
    use pmem_sim::{DurabilityDomain, MediaKind};
    use ptm::Algo;

    fn rc(threads: usize, ops: u64) -> RunConfig {
        RunConfig {
            threads,
            ops_per_thread: ops,
            ..RunConfig::default()
        }
    }

    #[test]
    fn both_index_kinds_run() {
        for kind in [IndexKind::BTree, IndexKind::Hash] {
            let mut w = Tpcc::new(kind, 2, 300);
            let sc = Scenario::new(
                "t",
                MediaKind::Optane,
                DurabilityDomain::Adr,
                Algo::RedoLazy,
            );
            let r = run_scenario(&mut w, &sc, &rc(2, 150));
            assert_eq!(r.ops, 300);
            assert!(r.ptm.commits >= 300, "{kind:?}");
        }
    }

    #[test]
    fn contention_generates_aborts_at_scale() {
        // Single warehouse + several threads: district counters collide.
        let mut w = Tpcc::new(IndexKind::Hash, 1, 1200);
        let sc = Scenario::new(
            "t",
            MediaKind::Optane,
            DurabilityDomain::Adr,
            Algo::RedoLazy,
        );
        let r = run_scenario(&mut w, &sc, &rc(4, 300));
        assert!(
            r.ptm.aborts > 0,
            "expected contention aborts, got commits={} aborts={}",
            r.ptm.commits,
            r.ptm.aborts
        );
    }

    #[test]
    fn read_mix_runs_and_lightens_fencing() {
        let fences = |read_pct| {
            let mut w = Tpcc::with_reads(IndexKind::Hash, 2, 400, read_pct);
            let sc = Scenario::new(
                "t",
                MediaKind::Optane,
                DurabilityDomain::Adr,
                Algo::RedoLazy,
            );
            let r = run_scenario(&mut w, &sc, &rc(2, 200));
            r.mem.sfences as f64 / r.ptm.commits.max(1) as f64
        };
        let write_only = fences(0);
        let half_reads = fences(50);
        assert!(
            half_reads < write_only,
            "read transactions must fence less: {half_reads:.2} vs {write_only:.2}"
        );
    }

    #[test]
    fn undo_variant_is_correct_too() {
        let mut w = Tpcc::new(IndexKind::BTree, 2, 200);
        let sc = Scenario::new(
            "t",
            MediaKind::Optane,
            DurabilityDomain::Eadr,
            Algo::UndoEager,
        );
        let r = run_scenario(&mut w, &sc, &rc(2, 100));
        assert!(r.ptm.commits >= 200);
    }
}
