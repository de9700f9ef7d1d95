//! crash_sites — deterministic crash-site enumeration sweep.
//!
//! Enumerates every persistence-relevant event of a single-threaded bank
//! transfer workload and crashes at each one (strided above
//! `--max-sites`), across {algorithm × durability domain × adversary
//! policy}, then recovers and checks invariants (committed-prefix
//! equality, allocator/GC consistency, recovery idempotence). See
//! EXPERIMENTS.md §"Crash-site enumeration".
//!
//! Flags:
//!
//! * `--quick` — bounded smoke sweep (12 sites per case unless
//!   `--max-sites` is given);
//! * `--max-sites N` — stride the sweep down to ≤ N sites per case;
//! * `--seed S` — workload/adversary seed (default 42);
//! * `--workload bank|group|transfer` — single-threaded bank transfers
//!   (default), two virtual threads' bank transfers stepped alternately
//!   on one OS thread (each thread's accounts must recover to a
//!   committed prefix of its own plan), or the cross-shard 2PC transfer
//!   workload (one global site numbering across all shard machines;
//!   crashes anywhere in the prepare/decide/commit window must leave
//!   transfers atomic);
//! * `--shards N` — for `bank`/`group`: sweep N shards' logs
//!   independently, each under its own derived seed (shard 0 keeps the
//!   base seed, so `--shards 1` is bit-identical to the unsharded
//!   sweep); for `transfer`: the shard count of the one sharded engine
//!   the sweep runs 2PC over;
//! * `--json` — one JSON object per case (JSON Lines) instead of CSV;
//! * `--skip-undo-rollback`, `--skip-redo-replay` — deliberately break
//!   recovery to demonstrate the sweep catches it (must exit nonzero);
//! * replay mode: `--site N --algo redo|undo|htm --domain
//!   adr|eadr|pdram|pdram-lite --policy per-word|all-old|all-new|per-line|biased:P`
//!   re-runs one exact crash from a `CRASH-REPRO` line.
//!
//! Violations print their reproducer line to stderr; the process exits
//! nonzero if any sweep case is violated.

use bench::args::{fail, Args};
use pmem_sim::AdversaryPolicy;
use ptm::crash_harness::{
    count_sites, default_cases, run_site, shard_seed, sweep_case, BankTransfers, CrashWorkload,
    ShardedTransfers, SweepCase, SweepOptions, TwoThreadBank,
};
use ptm::{Algo, RecoverOptions};
use trace::json::Writer;

struct Opts {
    json: bool,
    max_sites: Option<u64>,
    seed: u64,
    workload: String,
    shards: u64,
    recover: RecoverOptions,
    /// Replay mode: the case (algo, domain, policy, seed) and the site.
    replay: Option<(SweepCase, u64)>,
}

fn make_workload(name: &str, shards: usize) -> Option<Box<dyn CrashWorkload>> {
    Some(match name {
        "bank" => Box::new(BankTransfers::default()),
        "group" => Box::new(TwoThreadBank::default()),
        "transfer" => Box::new(ShardedTransfers {
            shards,
            ..Default::default()
        }),
        _ => return None,
    })
}

fn parse_opts() -> Opts {
    let mut args = Args::from_env();
    let quick = args.flag("--quick");
    let json = args.flag("--json");
    let max_sites = args.value("--max-sites");
    let seed = args.value("--seed").unwrap_or(42);
    let workload = args.value("--workload").unwrap_or_else(|| "bank".into());
    let shards = args.value("--shards").unwrap_or(1);
    let recover = RecoverOptions {
        skip_undo_rollback: args.flag("--skip-undo-rollback"),
        skip_redo_replay: args.flag("--skip-redo-replay"),
        ..RecoverOptions::default()
    };
    let site = args.value("--site");
    let algo = args.value("--algo");
    let domain = args.value("--domain");
    let policy: Option<String> = args.value("--policy");
    args.finish();
    if shards < 1 {
        fail("--shards needs at least 1");
    }
    let policy = policy.map(|v| {
        AdversaryPolicy::parse(&v).unwrap_or_else(|| fail(format!("unknown policy `{v}`")))
    });
    let replay = match (site, algo, domain, policy) {
        (Some(site), Some(algo), Some(domain), Some(policy)) => {
            let case = SweepCase {
                algo,
                domain,
                policy,
                seed,
            };
            Some((case, site))
        }
        (None, None, None, None) => None,
        (Some(_), ..) => fail("replay mode needs --algo, --domain and --policy"),
        (None, ..) => fail("--algo/--domain/--policy select a replay and need --site"),
    };
    Opts {
        json,
        max_sites: max_sites.or(quick.then_some(12)),
        seed,
        workload,
        shards,
        recover,
        replay,
    }
}

/// One sweep case as a JSON line. A violation's detail is free text from
/// the workload's checker; the writer's escaping keeps it on the line.
fn case_json(workload: &str, shard: u64, r: &ptm::CaseResult) -> String {
    let case = &r.case;
    let mut w = Writer::new();
    w.begin_object();
    w.key("workload").str(workload);
    w.key("shard").u64(shard);
    w.key("algo").str(case.algo.name());
    w.key("domain").str(case.domain.name());
    w.key("policy").str(&case.policy.to_string());
    w.key("seed").u64(case.seed);
    w.key("total_sites").u64(r.total_sites);
    w.key("sites_run").u64(r.sites_run);
    w.key("violations").begin_array();
    for v in &r.violations {
        w.begin_object();
        w.key("site").u64(v.site);
        w.key("detail").str(&v.detail);
        w.end_object();
    }
    w.end_array().end_object();
    w.finish()
}

/// Print one sweep case (a JSON line or a CSV row) and its violations'
/// reproducers; returns whether the case was violated.
fn report_case(opts: &Opts, workload: &str, shard: u64, r: &ptm::CaseResult) -> bool {
    let case = &r.case;
    if opts.json {
        println!("{}", case_json(workload, shard, r));
    } else {
        println!(
            "{workload},{shard},{},{},{},{},{},{},{}",
            case.algo.name(),
            case.domain.name(),
            case.policy,
            case.seed,
            r.total_sites,
            r.sites_run,
            r.violations.len()
        );
    }
    for v in &r.violations {
        eprintln!("{v}");
    }
    !r.violations.is_empty()
}

fn main() {
    let opts = parse_opts();
    let workload = make_workload(&opts.workload, opts.shards as usize).unwrap_or_else(|| {
        fail(format!(
            "unknown workload `{}` (known: bank group transfer)",
            opts.workload
        ))
    });

    if let Some((case, site)) = opts.replay {
        let total = count_sites(workload.as_ref(), &case);
        let r = run_site(workload.as_ref(), &case, site, opts.recover);
        println!(
            "replay workload={} shards={} site={}/{} algo={} domain={} policy={} seed={}",
            workload.name(),
            workload.machines(),
            site,
            total,
            case.algo.name(),
            case.domain.name(),
            case.policy,
            case.seed,
        );
        match r.fired {
            Some((at, kind)) => println!("crash fired at site {at} ({})", kind.label()),
            None => println!("run completed; crashed at end-of-run"),
        }
        println!(
            "recovery: logs={} redo_replayed={} undo_rolled_back={} torn={} \
             prepared={} indoubt_commit={} indoubt_abort={}",
            r.recovery.logs_scanned,
            r.recovery.redo_replayed,
            r.recovery.undo_rolled_back,
            r.recovery.torn_entries,
            r.recovery.prepared_skipped,
            r.recovery.indoubt_resolved_commit,
            r.recovery.indoubt_resolved_abort,
        );
        if let Some(gc) = r.gc {
            println!(
                "gc: scanned={} live={} reclaimed={} leaked={}",
                gc.blocks_scanned, gc.live_blocks, gc.reclaimed_blocks, gc.leaked_blocks
            );
        }
        println!("state digest: {:#018x}", r.state_digest);
        if r.violations.is_empty() {
            println!("invariants: OK");
        } else {
            for v in &r.violations {
                eprintln!("VIOLATION: {v}");
            }
            std::process::exit(1);
        }
        return;
    }

    let sweep_opts = SweepOptions {
        max_sites_per_case: opts.max_sites,
        recover: opts.recover,
    };
    if !opts.json {
        println!("workload,shard,algo,domain,policy,seed,total_sites,sites_run,violations");
    }
    // `transfer` sweeps its one engine once, labelled with the shard
    // count; the others run `--shards` independent sweeps, each under
    // its own derived seed (shard 0 keeps the base seed).
    let one_engine = opts.workload == "transfer";
    let mut dirty = false;
    for shard in 0..if one_engine { 1 } else { opts.shards } {
        let label = if one_engine { opts.shards } else { shard };
        // HTM cross-shard commits always take the software path, so the
        // 2PC grid runs the three software logging policies only.
        for case in default_cases(shard_seed(opts.seed, shard as usize))
            .into_iter()
            .filter(|c| !one_engine || c.algo != Algo::HtmLogged)
        {
            let r = sweep_case(workload.as_ref(), &case, sweep_opts);
            dirty |= report_case(&opts, workload.name(), label, &r);
        }
    }
    if dirty {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem_sim::DurabilityDomain;
    use ptm::crash_harness::Violation;

    /// A checker's free-text detail may hold anything; the `--json`
    /// contract is one well-formed object per line regardless.
    #[test]
    fn violation_detail_with_newline_and_quote_stays_one_line() {
        let case = SweepCase {
            algo: Algo::RedoLazy,
            domain: DurabilityDomain::Adr,
            policy: AdversaryPolicy::PerWord,
            seed: 42,
        };
        let detail = "balance \"a\" = 7,\nexpected 9 \\ tab\there";
        let r = ptm::CaseResult {
            case,
            total_sites: 10,
            sites_run: 11,
            violations: vec![Violation {
                workload: "bank".into(),
                case,
                site: 3,
                fired: None,
                detail: detail.into(),
            }],
        };
        let line = case_json("bank", 0, &r);
        assert!(!line.contains('\n'), "{line:?}");
        trace::json::check_structure(&line).expect("well-formed line");
        assert_eq!(trace::json::str(&line, "detail").as_deref(), Some(detail));
        let head =
            r#"{"workload":"bank","shard":0,"algo":"redo","domain":"adr","policy":"per-word","#;
        assert!(line.starts_with(head), "{line}");
    }
}
