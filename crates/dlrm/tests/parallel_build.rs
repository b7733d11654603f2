//! Building the tables across a team is bitwise the serial build.
//!
//! `DlrmModel::new` (and through `DlrmModel::build_tables` the distributed
//! and sharded models) lets each team member claim the next unbuilt table
//! of at least `HUGE_PAGE` bytes, and builds the smaller ones on the
//! caller. Every table draws from its own RNG stream, so whichever member
//! builds a table, its bits — and every MLP weight — must equal a serial
//! `build_table` loop, for any table count, uneven and mixed table sizes
//! and any team width. A table that cannot be laid out must panic on the
//! caller, not hang the team, and leave the pool able to build the next
//! model.

use dlrm::layers::{Activation, Mlp};
use dlrm::prelude::*;
use dlrm_data::DlrmConfig;
use dlrm_tensor::init::seeded_rng;
use std::panic::{catch_unwind, AssertUnwindSafe};

const SEED: u64 = 29;

/// Rows of a 16-wide table of 2^63 bytes, one more than `isize::MAX`: the
/// `AlignedVec layout overflow` panic, before anything is allocated.
const UNLAYABLE_ROWS: u64 = 1 << 57;

fn cfg(tables: usize) -> DlrmConfig {
    let mut cfg = DlrmConfig::small().scaled_down(300, 256);
    cfg.dense_features = 13;
    cfg.bottom_mlp = vec![32, 16];
    cfg.emb_dim = 16;
    cfg.num_tables = tables;
    // Tables 0 and 2 are 34.6 and 38.4 MB, past `HUGE_PAGE`, so
    // the team builds them; the small ones are the caller's. Uneven: a
    // later table may finish before an earlier one.
    cfg.table_rows = [540_000, 3, 600_000, 40, 900][..tables].to_vec();
    cfg.lookups_per_table = 2;
    cfg.top_mlp = vec![24, 1];
    cfg
}

fn execs() -> Vec<(&'static str, Execution)> {
    vec![
        ("reference", Execution::Reference),
        ("optimized(1)", Execution::optimized(1)),
        ("optimized(2)", Execution::optimized(2)),
        ("optimized(3)", Execution::optimized(3)),
    ]
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn new_model(cfg: &DlrmConfig, exec: Execution) -> DlrmModel {
    DlrmModel::new(
        cfg,
        exec,
        UpdateStrategy::RaceFree,
        PrecisionMode::Fp32,
        SEED,
    )
}

/// Weight and bias bits of every layer of `mlp`.
fn mlp_bits(mlp: &Mlp) -> Vec<Vec<u32>> {
    mlp.layers
        .iter()
        .flat_map(|l| [bits(l.w.as_slice()), bits(&l.b)])
        .collect()
}

/// Asserts `model` holds exactly the serially built weights of `cfg`.
fn assert_serial_bits(cfg: &DlrmConfig, model: &DlrmModel, what: &str) {
    assert_eq!(model.tables.len(), cfg.num_tables, "{what}");
    for (t, table) in model.tables.iter().enumerate() {
        let serial = DlrmModel::build_table(cfg, t, UpdateStrategy::RaceFree, SEED);
        assert_eq!(
            (table.rows(), table.dim()),
            (serial.rows(), serial.dim()),
            "{what}: table {t} shape"
        );
        assert!(
            bits(table.weight.as_slice()) == bits(serial.weight.as_slice()),
            "{what}: table {t} bits differ from the serial build"
        );
    }
    let bottom = Mlp::new(
        cfg.dense_features,
        &cfg.bottom_mlp,
        Activation::Relu,
        &mut seeded_rng(SEED, DlrmModel::BOTTOM_STREAM),
    );
    let top = Mlp::new(
        cfg.interaction_output_dim(),
        &cfg.top_mlp,
        Activation::None,
        &mut seeded_rng(SEED, DlrmModel::TOP_STREAM),
    );
    assert!(
        mlp_bits(&model.bottom) == mlp_bits(&bottom),
        "{what}: bottom MLP"
    );
    assert!(mlp_bits(&model.top) == mlp_bits(&top), "{what}: top MLP");
}

#[test]
fn every_team_width_builds_the_serial_bits() {
    for tables in [1, 3, 4, 5] {
        let cfg = cfg(tables);
        for (name, exec) in execs() {
            let model = new_model(&cfg, exec);
            assert_serial_bits(&cfg, &model, &format!("{tables} tables on {name}"));
        }
    }
}

#[test]
fn a_subset_comes_back_in_the_order_asked() {
    let cfg = cfg(5);
    let owned = [2, 1, 0, 4];
    for (name, exec) in execs() {
        let built = DlrmModel::build_tables(&cfg, &owned, UpdateStrategy::RaceFree, &exec, SEED);
        assert_eq!(built.len(), owned.len(), "{name}");
        for (&t, table) in owned.iter().zip(&built) {
            let serial = DlrmModel::build_table(&cfg, t, UpdateStrategy::RaceFree, SEED);
            assert!(
                bits(table.weight.as_slice()) == bits(serial.weight.as_slice()),
                "{name}: table {t}"
            );
        }
    }
}

/// The message `DlrmModel::new` panics with on `cfg`.
fn build_panic(cfg: &DlrmConfig, exec: &Execution) -> String {
    let Err(err) = catch_unwind(AssertUnwindSafe(|| new_model(cfg, exec.clone()))) else {
        panic!("the build was expected to panic");
    };
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

#[test]
fn an_unlayable_table_panics_on_the_caller_and_the_pool_still_builds() {
    let exec = Execution::optimized(3);
    let good = cfg(5);
    let mut layouts: Vec<Vec<u64>> = (0..5)
        .map(|bad| {
            let mut rows = good.table_rows.clone();
            rows[bad] = UNLAYABLE_ROWS;
            rows
        })
        .collect();
    // Every table unlayable: each member panics on its first claim, the
    // spawned workers included, since five tables outlast three claims.
    layouts.push(vec![UNLAYABLE_ROWS; 5]);
    for rows in layouts {
        let mut bad = good.clone();
        bad.table_rows = rows.clone();
        let msg = build_panic(&bad, &exec);
        assert!(
            msg.contains("AlignedVec layout overflow"),
            "rows {rows:?}: {msg}"
        );
        let model = new_model(&good, exec.clone());
        assert_serial_bits(&good, &model, &format!("after rows {rows:?}"));
    }
}

#[test]
fn building_from_inside_a_job_on_the_same_pool_is_the_reentrancy_panic() {
    let exec = Execution::optimized(2);
    let cfg = cfg(3);
    let pool = exec.pool().expect("optimized");
    let msg = std::sync::Mutex::new(String::new());
    pool.broadcast(|tid| {
        if tid == 0 {
            *msg.lock().unwrap() = build_panic(&cfg, &exec);
        }
    });
    let msg = msg.into_inner().unwrap();
    assert!(msg.contains("not reentrant"), "{msg}");
    // The dispatch in flight was not disturbed: the pool still builds.
    assert_serial_bits(
        &cfg,
        &new_model(&cfg, exec.clone()),
        "after the nested call",
    );
}
