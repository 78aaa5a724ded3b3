//! Cold vs warm parameter-sweep execution through the persistent semantic
//! prefix cache (`redsim-msvstore`): a VQA-style ansatz swept over its
//! final rotation angle, with every injection at the tail layer so the
//! whole pre-measurement state is cacheable. The cold pass populates an
//! empty store; the warm pass replays the identical sweep against it.
//! Outcomes and `ExecStats` are asserted bitwise identical to the
//! uncached reordered executor on every pass. Results are written to
//! `BENCH_cache.json`; pass `--check RATIO` (CI uses `--check 1.5`) to
//! exit non-zero when the cold/warm speedup falls below `RATIO` or any
//! warm point misses.
//!
//! Usage: `cache [--qubits N] [--blocks N] [--points N] [--trials N]
//! [--reps N] [--seed N] [--dir PATH] [--out PATH] [--check RATIO]
//! [--quick] [--record] [--quiet]`

use std::time::Instant;

use qsim_telemetry::NullRecorder;
use redsim::testkit::vqa_sweep;
use redsim::{RunResult, RunSpec, Simulation};
use redsim_bench::report::ResultsDoc;
use redsim_bench::table::Table;
use redsim_bench::{arg_flag, arg_value, json, report};
use redsim_msvstore::MsvStore;

fn assert_bitwise(point: &str, pass: &str, got: &RunResult, want: &RunResult) {
    assert_eq!(got.stats, want.stats, "{point}: {pass} pass drifted from uncached stats");
    assert_eq!(got.outcomes, want.outcomes, "{point}: {pass} pass drifted from uncached outcomes");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = arg_flag(&args, "--quick");
    let qubits = arg_value(&args, "--qubits", if quick { 10usize } else { 14 });
    let blocks = arg_value(&args, "--blocks", if quick { 8usize } else { 16 });
    let points = arg_value(&args, "--points", if quick { 4usize } else { 6 });
    let trials = arg_value(&args, "--trials", 8usize);
    let reps = arg_value(&args, "--reps", 3usize);
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
    let store = MsvStore::open(&dir, 0).expect("cache directory opens");

    let (model, sweep) = vqa_sweep(qubits, blocks, points, trials, seed);
    let sims: Vec<Simulation> = sweep
        .iter()
        .map(|point| {
            let mut sim =
                Simulation::new(point.layered.clone(), model.clone()).expect("model covers ansatz");
            sim.set_trials(point.trials.clone()).expect("trial geometry matches");
            sim
        })
        .collect();

    // Uncached reference: pins the bitwise contract for both cache passes.
    let reference: Vec<RunResult> = sims
        .iter()
        .map(|sim| sim.run(&RunSpec::default(), &NullRecorder).expect("sweep point runs").result)
        .collect();

    let mut uncached_ms = vec![f64::INFINITY; sims.len()];
    let mut cold_ms = vec![f64::INFINITY; sims.len()];
    let mut warm_ms = vec![f64::INFINITY; sims.len()];
    let mut keys = vec![String::new(); sims.len()];
    let (mut cold_hits, mut warm_hits) = (0u64, 0u64);
    for rep in 0..reps.max(1) {
        for (i, sim) in sims.iter().enumerate() {
            let start = Instant::now();
            let result =
                sim.run(&RunSpec::default(), &NullRecorder).expect("sweep point runs").result;
            uncached_ms[i] = uncached_ms[i].min(start.elapsed().as_secs_f64() * 1e3);
            assert_bitwise(&sweep[i].name, "uncached", &result, &reference[i]);
        }
        store.clear().expect("cache directory clears");
        for (i, sim) in sims.iter().enumerate() {
            let start = Instant::now();
            let (result, cache) = sim
                .run(&RunSpec { store: Some(&store), ..RunSpec::default() }, &NullRecorder)
                .map(|o| (o.result, o.cache.expect("cached runs report the store")))
                .expect("sweep point runs");
            cold_ms[i] = cold_ms[i].min(start.elapsed().as_secs_f64() * 1e3);
            assert_bitwise(&sweep[i].name, "cold", &result, &reference[i]);
            if rep == 0 {
                cold_hits += u64::from(cache.hit);
                keys[i] = cache.key.unwrap_or_default();
            }
        }
        for (i, sim) in sims.iter().enumerate() {
            let start = Instant::now();
            let (result, cache) = sim
                .run(&RunSpec { store: Some(&store), ..RunSpec::default() }, &NullRecorder)
                .map(|o| (o.result, o.cache.expect("cached runs report the store")))
                .expect("sweep point runs");
            warm_ms[i] = warm_ms[i].min(start.elapsed().as_secs_f64() * 1e3);
            assert_bitwise(&sweep[i].name, "warm", &result, &reference[i]);
            if rep == 0 {
                warm_hits += u64::from(cache.hit);
            }
        }
    }

    let stats = store.stats();
    let cold_total: f64 = cold_ms.iter().sum();
    let warm_total: f64 = warm_ms.iter().sum();
    let uncached_total: f64 = uncached_ms.iter().sum();
    let speedup = cold_total / warm_total.max(1e-9);
    let warm_hit_rate = warm_hits as f64 / sims.len() as f64;

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
        .field("speedup", json::number(speedup))
        .int("cold_hits", cold_hits)
        .int("warm_hits", warm_hits)
        .field("warm_hit_rate", json::number(warm_hit_rate))
        .int("store_entries", stats.entries)
        .int("store_bytes", stats.bytes)
        .field(
            "rows",
            json::array(sweep.iter().enumerate().map(|(i, point)| {
                json::object(&[
                    ("name", json::string(&point.name)),
                    ("theta", json::number(point.theta)),
                    ("key", json::string(&keys[i])),
                    ("uncached_ms", json::number(uncached_ms[i])),
                    ("cold_ms", json::number(cold_ms[i])),
                    ("warm_ms", json::number(warm_ms[i])),
                    ("speedup", json::number(cold_ms[i] / warm_ms[i].max(1e-9))),
                ])
            })),
        );
    doc.write_file(&out);
    report::maybe_record(&args, &doc);

    if !quiet {
        let mut table = Table::new(["Point", "Uncached ms", "Cold ms", "Warm ms", "Speedup"]);
        for (i, point) in sweep.iter().enumerate() {
            table.row([
                point.name.clone(),
                format!("{:.2}", uncached_ms[i]),
                format!("{:.2}", cold_ms[i]),
                format!("{:.2}", warm_ms[i]),
                format!("{:.2}x", cold_ms[i] / warm_ms[i].max(1e-9)),
            ]);
        }
        println!(
            "Semantic prefix cache: VQA sweep, {qubits} qubits x {blocks} blocks x {points} points"
        );
        println!("{table}");
        println!(
            "cold {cold_total:.1} ms -> warm {warm_total:.1} ms ({speedup:.2}x), \
             warm hit rate {:.0}%, {} entries / {} bytes on disk",
            warm_hit_rate * 100.0,
            stats.entries,
            stats.bytes
        );
        println!("results written to {out}");
    }

    if !keep_dir {
        let _ = std::fs::remove_dir_all(&dir);
    }
    if check.is_finite() {
        if speedup < check {
            eprintln!("FAIL: warm-cache speedup {speedup:.2}x below the {check}x floor");
            std::process::exit(1);
        }
        if warm_hit_rate < 1.0 {
            eprintln!(
                "FAIL: warm pass missed {}/{} points",
                sims.len() as u64 - warm_hits,
                sims.len()
            );
            std::process::exit(1);
        }
        println!(
            "warm-cache speedup {speedup:.2}x clears the {check}x floor with a full warm hit rate"
        );
    }
}
