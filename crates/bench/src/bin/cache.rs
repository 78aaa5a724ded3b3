//! Cold vs warm parameter-sweep execution through the persistent semantic
//! prefix cache (`redsim-msvstore`): a VQA-style ansatz swept over its
//! final rotation angle, with every injection at the tail layer so the
//! whole pre-measurement state is cacheable. A cold pass runs a point
//! against its emptied store; a warm pass replays it against the stored
//! snapshot. Outcomes and `ExecStats` are asserted bitwise identical to the
//! uncached reordered executor on every pass. Results are written to
//! `BENCH_cache.json`.
//!
//! Every point's uncached, cold and warm passes are sides of one set of
//! `--reps` rotated rounds (`redsim_bench::timing`); each point has a store
//! of its own, emptied untimed before each cold pass. Times are medians;
//! `speedup` is the median per-round ratio of the sweep's cold over warm
//! total, with its 95 % bootstrap interval (`speedup_lo`, `speedup_hi`).
//! Pass `--check RATIO` (CI uses `--check 1.5`) to exit non-zero unless the
//! interval's lower end clears `RATIO` and every warm pass of every point
//! hit.
//!
//! Usage: `cache [--qubits N] [--blocks N] [--points N] [--trials N]
//! [--reps ROUNDS] [--seed N] [--dir PATH] [--out PATH] [--check RATIO]
//! [--record] [--quiet]`

use qsim_telemetry::NullRecorder;
use redsim::testkit::vqa_sweep;
use redsim::{RunResult, RunSpec, Simulation};
use redsim_bench::report::ResultsDoc;
use redsim_bench::table::Table;
use redsim_bench::timing::{interval, median, ratios, time_rounds_prepared};
use redsim_bench::{arg_flag, arg_value, json, report};
use redsim_msvstore::MsvStore;

/// The passes timed per point, in side order: side `3 * point + pass`.
const PASSES: [&str; 3] = ["uncached", "cold", "warm"];
const UNCACHED: usize = 0;
const COLD: usize = 1;
const WARM: usize = 2;

fn assert_bitwise(point: &str, pass: &str, got: &RunResult, want: &RunResult) {
    assert_eq!(got.stats, want.stats, "{point}: {pass} pass drifted from uncached stats");
    assert_eq!(got.outcomes, want.outcomes, "{point}: {pass} pass drifted from uncached outcomes");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let qubits = arg_value(&args, "--qubits", 14usize);
    let blocks = arg_value(&args, "--blocks", 16usize);
    let points = arg_value(&args, "--points", 6usize);
    let trials = arg_value(&args, "--trials", 8usize);
    let reps = arg_value(&args, "--reps", 9usize).max(1);
    let seed = arg_value(&args, "--seed", 2020u64);
    let out = arg_value(&args, "--out", "BENCH_cache.json".to_owned());
    let check = arg_value(&args, "--check", f64::INFINITY);
    let dir = arg_value(&args, "--dir", String::new());
    let quiet = arg_flag(&args, "--quiet");

    let (keep_dir, dir) = if dir.is_empty() {
        let tmp = std::env::temp_dir().join(format!("redsim-bench-cache-{}", std::process::id()));
        (false, tmp)
    } else {
        (true, std::path::PathBuf::from(dir))
    };

    let (model, sweep) = vqa_sweep(qubits, blocks, points, trials, seed);
    let stores: Vec<MsvStore> = sweep
        .iter()
        .map(|point| MsvStore::open(&dir.join(&point.name), 0).expect("cache directory opens"))
        .collect();
    let sims: Vec<Simulation> = sweep
        .iter()
        .map(|point| {
            let mut sim =
                Simulation::new(point.layered.clone(), model.clone()).expect("model covers ansatz");
            sim.set_trials(point.trials.clone()).expect("trial geometry matches");
            sim
        })
        .collect();

    // Uncached reference: pins the bitwise contract for every pass.
    let reference: Vec<RunResult> = sims
        .iter()
        .map(|sim| sim.run(&RunSpec::default(), &NullRecorder).expect("sweep point runs"))
        .collect();

    // A point counts as a cold hit if any cold pass hit, and as a warm hit
    // only if every warm pass did.
    let mut keys = vec![String::new(); sims.len()];
    let mut cold_hit = vec![false; sims.len()];
    let mut warm_hit = vec![true; sims.len()];
    let rounds = time_rounds_prepared(
        PASSES.len() * sims.len(),
        reps,
        |side| {
            if side % PASSES.len() == COLD {
                stores[side / PASSES.len()].clear().expect("cache directory clears");
            }
        },
        |side| {
            let (i, pass) = (side / PASSES.len(), side % PASSES.len());
            let store = (pass != UNCACHED).then_some((&stores[i], &model));
            let outcome = sims[i]
                .run(&RunSpec { store, ..RunSpec::default() }, &NullRecorder)
                .expect("sweep point runs");
            assert_bitwise(&sweep[i].name, PASSES[pass], &outcome, &reference[i]);
            if pass != UNCACHED {
                let cache = outcome.cache.expect("cached runs report the store");
                if pass == COLD {
                    cold_hit[i] |= cache.hit;
                    keys[i] = cache.key;
                } else {
                    warm_hit[i] &= cache.hit;
                }
            }
        },
    );

    // Per point and pass, and per round summed over the sweep.
    let column = |i: usize, pass: usize| rounds.column(PASSES.len() * i + pass);
    let sweep_total = |pass: usize| -> Vec<f64> {
        (0..reps).map(|r| (0..sims.len()).map(|i| column(i, pass)[r]).sum()).collect()
    };
    let point_ms: Vec<[f64; 3]> = (0..sims.len())
        .map(|i| [UNCACHED, COLD, WARM].map(|pass| median(&column(i, pass))))
        .collect();
    let point_speedup: Vec<f64> =
        (0..sims.len()).map(|i| median(&ratios(&column(i, COLD), &column(i, WARM)))).collect();
    let (uncached_total, cold_total, warm_total) =
        (median(&sweep_total(UNCACHED)), median(&sweep_total(COLD)), median(&sweep_total(WARM)));
    let speedup = interval(&ratios(&sweep_total(COLD), &sweep_total(WARM)), median, seed);
    let cold_hits = cold_hit.iter().filter(|&&hit| hit).count();
    let warm_hits = warm_hit.iter().filter(|&&hit| hit).count();
    let warm_hit_rate = warm_hits as f64 / sims.len() as f64;
    let (store_entries, store_bytes) = stores
        .iter()
        .map(MsvStore::stats)
        .fold((0, 0), |(entries, bytes), s| (entries + s.entries, bytes + s.bytes));

    let doc = ResultsDoc::new("cache")
        .int("seed", seed)
        .int("reps", reps)
        .int("qubits", qubits)
        .int("blocks", blocks)
        .int("points", points)
        .int("trials_per_point", trials)
        .field("uncached_ms", json::number(uncached_total))
        .field("cold_ms", json::number(cold_total))
        .field("warm_ms", json::number(warm_total))
        .field("speedup", json::number(speedup.point))
        .field("speedup_lo", json::number(speedup.lo))
        .field("speedup_hi", json::number(speedup.hi))
        .int("cold_hits", cold_hits)
        .int("warm_hits", warm_hits)
        .field("warm_hit_rate", json::number(warm_hit_rate))
        .int("store_entries", store_entries)
        .int("store_bytes", store_bytes)
        .field(
            "rows",
            json::array(sweep.iter().enumerate().map(|(i, point)| {
                let [uncached_ms, cold_ms, warm_ms] = point_ms[i];
                json::object(&[
                    ("name", json::string(&point.name)),
                    ("theta", json::number(point.theta)),
                    ("key", json::string(&keys[i])),
                    ("uncached_ms", json::number(uncached_ms)),
                    ("cold_ms", json::number(cold_ms)),
                    ("warm_ms", json::number(warm_ms)),
                    ("speedup", json::number(point_speedup[i])),
                ])
            })),
        );
    doc.write_file(&out);
    report::maybe_record(&args, &doc);

    if !quiet {
        let mut table = Table::new(["Point", "Uncached ms", "Cold ms", "Warm ms", "Speedup"]);
        for (i, point) in sweep.iter().enumerate() {
            let [uncached_ms, cold_ms, warm_ms] = point_ms[i];
            table.row([
                point.name.clone(),
                format!("{uncached_ms:.2}"),
                format!("{cold_ms:.2}"),
                format!("{warm_ms:.2}"),
                format!("{:.2}x", point_speedup[i]),
            ]);
        }
        println!(
            "Semantic prefix cache: VQA sweep, {qubits} qubits x {blocks} blocks x {points} points, \
             medians of {reps} rotated rounds"
        );
        println!("{table}");
        println!(
            "cold {cold_total:.1} ms -> warm {warm_total:.1} ms ({:.2}x, 95% interval \
             {:.2} … {:.2}x), warm hit rate {:.0}%, {store_entries} entries / {store_bytes} bytes \
             on disk",
            speedup.point,
            speedup.lo,
            speedup.hi,
            warm_hit_rate * 100.0,
        );
        println!("results written to {out}");
    }

    if !keep_dir {
        let _ = std::fs::remove_dir_all(&dir);
    }
    if check.is_finite() {
        if speedup.lo < check {
            eprintln!(
                "FAIL: warm-cache speedup interval's lower end {:.2}x below the {check}x floor",
                speedup.lo
            );
            std::process::exit(1);
        }
        if warm_hits < sims.len() {
            eprintln!(
                "FAIL: warm passes missed on {}/{} points",
                sims.len() - warm_hits,
                sims.len()
            );
            std::process::exit(1);
        }
        println!(
            "warm-cache speedup interval's lower end {:.2}x clears the {check}x floor with a \
             full warm hit rate",
            speedup.lo
        );
    }
}
