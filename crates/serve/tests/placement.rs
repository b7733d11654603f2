//! Placement walls: an engine's threads sit where their team's pool says.
//!
//! A lane is its team's member 0. On a `ThreadPool::with_affinity(cores)`
//! team the lane, and on a sharded model the shard's table server, pin
//! themselves to `cores[0]`; on a `ThreadPool::new` team the lane keeps
//! the affinity of the thread that started the engine. Each engine
//! thread's `Cpus_allowed_list` is read from its own status file,
//! `/proc/self/task/<tid>/status`, the thread found by the name the engine
//! gives it. The tests take one lock, so one engine's threads at a time
//! carry those names.
//!
//! Linux on x86_64 only (the one platform `pin_current_thread` binds).
//! With fewer than two CPUs allowed there is no second seat to tell apart:
//! the engines still run and every handle must still resolve, but no seat
//! is compared — except that a `pin_cores` model built under a one-CPU
//! mask (`taskset -c 1`) must seat every lane inside it.

use dlrm::layers::Execution;
use dlrm_data::DlrmConfig;
use dlrm_kernels::threadpool::{allowed_cpus, pin_current_thread, ThreadPool};
use dlrm_serve::{
    CacheSizing, Request, ServeConfig, ServeEngine, ServeModel, ShardSpec, ShardedEngine,
    ShardedServeModel,
};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

const WATCHDOG: Duration = Duration::from_secs(60);

/// Held by each test while its engine lives.
fn one_engine_at_a_time() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn tiny_cfg() -> DlrmConfig {
    let mut cfg = DlrmConfig::small().scaled_down(50, 256);
    cfg.dense_features = 2;
    cfg.bottom_mlp = vec![8, 4];
    cfg.emb_dim = 4;
    cfg.num_tables = 3;
    cfg.table_rows = vec![50, 50, 50];
    cfg.top_mlp = vec![8, 1];
    cfg
}

/// The `Cpus_allowed_list` line of a status file, e.g. `0-1`.
fn allowed_list(status: &str) -> String {
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"));
    list.unwrap_or_default().trim().to_owned()
}

/// The calling thread's CPU list.
fn my_cpus() -> String {
    allowed_list(&std::fs::read_to_string("/proc/thread-self/status").unwrap_or_default())
}

/// The CPU list of every live thread of this process named `name` (as the
/// kernel keeps names: their first 15 bytes).
fn cpus_of_threads_named(name: &str) -> Vec<String> {
    let name = &name[..name.len().min(15)];
    let tasks = std::fs::read_dir("/proc/self/task").expect("/proc/self/task");
    tasks
        .filter_map(|task| {
            let path = task.ok()?.path();
            let comm = std::fs::read_to_string(path.join("comm")).ok()?;
            let status = std::fs::read_to_string(path.join("status")).ok()?;
            (comm.trim_end() == name).then(|| allowed_list(&status))
        })
        .collect()
}

/// The CPU ids of a `Cpus_allowed_list` such as `0-2,5`.
fn parse_cpu_list(list: &str) -> Vec<usize> {
    list.split(',')
        .filter(|range| !range.is_empty())
        .flat_map(|range| {
            let (lo, hi) = range.split_once('-').unwrap_or((range, range));
            lo.parse().expect("cpu id")..=hi.parse().expect("cpu id")
        })
        .collect()
}

const CAN_PIN: bool = cfg!(all(target_os = "linux", target_arch = "x86_64"));

/// The CPUs this thread may run on, when there are two or more to tell
/// seats apart on a platform that pins; `None`, with a line saying so,
/// otherwise.
fn two_cpus_or_skip() -> Option<Vec<usize>> {
    let list = my_cpus();
    let cpus = parse_cpu_list(&list);
    if CAN_PIN && cpus.len() >= 2 {
        return Some(cpus);
    }
    println!("skipped: placement is not compared with cpus allowed {list:?}");
    None
}

/// Waits until the one live thread named `name` runs on `core` alone: a
/// thread pins itself as it starts, which may be after `start` returned.
fn assert_seated(name: &str, core: usize) {
    let start = Instant::now();
    loop {
        let seen = cpus_of_threads_named(name);
        if seen == [core.to_string()] {
            return;
        }
        assert!(
            start.elapsed() < WATCHDOG,
            "{name} runs on {seen:?}, not on {core}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Scores `n` requests through `engine`; every handle must resolve.
fn serve(engine: &ShardedEngine, n: usize) {
    let client = engine.client();
    let request = || Request {
        dense: vec![0.5; 2],
        indices: vec![vec![1, 2], vec![], vec![3]],
    };
    let handles: Vec<_> = (0..n)
        .map(|_| client.submit(request()).expect("open"))
        .collect();
    for handle in handles {
        assert!(handle.wait().expect("served").logit.is_finite());
    }
}

/// A one-shard engine on `exec`, started from a thread that first pins
/// itself to `spawner`, when given.
fn start_from(spawner: Option<usize>, exec: Execution) -> ServeEngine {
    let model = ServeModel::new(&tiny_cfg(), exec, CacheSizing::Disabled, 5);
    let start = move || {
        if let Some(core) = spawner {
            assert!(pin_current_thread(core), "the spawner pins to {core}");
            assert_eq!(my_cpus(), core.to_string());
        }
        ServeEngine::start(model, ServeConfig::default())
    };
    std::thread::spawn(start).join().expect("spawner")
}

#[test]
fn a_lane_on_a_pinned_team_runs_on_its_first_core() {
    let _one = one_engine_at_a_time();
    let cpus = two_cpus_or_skip();
    // Spawned from one CPU, seated on another.
    let (spawner, seat) = cpus.as_ref().map_or((None, 0), |c| (Some(c[0]), c[1]));
    let exec = Execution::Optimized(Arc::new(ThreadPool::with_affinity(&[seat])));
    let engine = start_from(spawner, exec);
    serve(&engine, 40);
    if cpus.is_some() {
        assert_seated("dlrm-shard0-lane", seat);
    }
    assert_eq!(engine.shutdown().requests, 40);
}

#[test]
fn a_lane_on_an_unpinned_team_keeps_its_spawners_affinity() {
    let _one = one_engine_at_a_time();
    let cpus = two_cpus_or_skip();
    let spawner = cpus.as_ref().map(|c| c[1]);
    let engine = start_from(spawner, Execution::optimized(1));
    // The lane would have pinned itself before taking its first batch.
    serve(&engine, 40);
    if let Some(core) = spawner {
        let lanes = cpus_of_threads_named("dlrm-shard0-lane");
        assert_eq!(
            lanes,
            [core.to_string()],
            "the lane moved off its spawner's CPU"
        );
    }
    assert_eq!(engine.shutdown().requests, 40);
}

#[test]
fn pin_cores_seats_every_lane_and_table_server_on_its_shards_first_core() {
    let _one = one_engine_at_a_time();
    let cpus = two_cpus_or_skip();
    let spec = ShardSpec {
        shards: 2,
        pin_cores: true,
        ..ShardSpec::default()
    };
    let placement = dlrm_topology::CorePlacement::contiguous(
        &allowed_cpus(),
        spec.shards,
        spec.workers_per_shard,
    );
    let model = ShardedServeModel::new(&tiny_cfg(), &spec, 5);
    let engine = ShardedEngine::start(model, ServeConfig::default());
    serve(&engine, 64);
    if let Some(cpus) = cpus {
        for shard in 0..spec.shards {
            let first = placement.shard_cores(shard)[0];
            if cpus.contains(&first) {
                assert_seated(&format!("dlrm-shard{shard}-lane"), first);
                assert_seated(&format!("dlrm-shard{shard}-srv"), first);
            }
        }
    }
    assert_eq!(engine.shutdown().requests, 64);
}

#[test]
fn allowed_cpus_reads_the_callers_mask() {
    let want = parse_cpu_list(&my_cpus());
    if CAN_PIN {
        assert_eq!(allowed_cpus(), want);
    }
}

/// Under a one-CPU mask other than CPU 0 (a spawner pinned to the last
/// allowed CPU, or the whole process under `taskset -c 1`), `pin_cores`
/// places every team inside the mask: each lane and table server runs on
/// that CPU, not on CPU 0.
#[test]
fn pin_cores_seats_every_lane_inside_a_one_cpu_mask() {
    let _one = one_engine_at_a_time();
    let cpus = parse_cpu_list(&my_cpus());
    let Some(&only) = cpus.last().filter(|&&cpu| CAN_PIN && cpu != 0) else {
        println!("skipped: no CPU but 0 to confine the model to ({cpus:?})");
        return;
    };
    let spec = ShardSpec {
        shards: 2,
        pin_cores: true,
        ..ShardSpec::default()
    };
    let start = move || {
        assert!(pin_current_thread(only), "the spawner pins to {only}");
        assert_eq!(allowed_cpus(), [only]);
        let model = ShardedServeModel::new(&tiny_cfg(), &spec, 5);
        ShardedEngine::start(model, ServeConfig::default())
    };
    let engine = std::thread::spawn(start).join().expect("spawner");
    serve(&engine, 64);
    for shard in 0..2 {
        assert_seated(&format!("dlrm-shard{shard}-lane"), only);
        assert_seated(&format!("dlrm-shard{shard}-srv"), only);
    }
    assert_eq!(engine.shutdown().requests, 64);
}
