//! Workspace-level tests of the fleet-scale yield executor
//! (`vccmin_experiments::fleet` + `vccmin_experiments::checkpoint`):
//!
//! * the streaming, sharded, binary-searching executor reproduces the golden
//!   quick() snapshot and the linear-scan oracle of
//!   `vccmin_tests::yield_oracle` byte for byte, across scales and shard
//!   sizes (`tests/tests/yield_oracle.rs` adds the property test);
//! * a checkpointed campaign that is interrupted (shards deleted and
//!   corrupted) resumes to the same bytes as an uninterrupted run;
//! * the per-scheme quantile sketch cross-checks against the closed forms of
//!   `vccmin_analysis::yield_model` in the i.i.d. limit.

use vccmin_core::analysis::yield_model;
use vccmin_core::experiments::checkpoint::CheckpointStore;
use vccmin_core::experiments::fleet::{FleetParams, FleetStudy};
use vccmin_core::experiments::yield_study::{YieldParams, YieldStudy};
use vccmin_core::{CacheGeometry, PfailVoltageModel, VariationModel};
use vccmin_tests::yield_oracle;

const GOLDEN: &str = include_str!("../golden/yield.csv");

fn fleet_csv(fleet: &FleetStudy) -> String {
    format!(
        "{}{}",
        fleet.yield_curve().to_csv(),
        fleet.vccmin_summary().to_csv()
    )
}

#[test]
fn fleet_quick_scale_matches_the_golden_snapshot_byte_for_byte() {
    let fleet = FleetStudy::run_parallel(&FleetParams::new(YieldParams::quick()));
    assert_eq!(
        fleet_csv(&fleet),
        GOLDEN,
        "the fleet executor must reproduce tests/golden/yield.csv exactly; \
         it backs the `vccmin-repro yield` CLI at every scale"
    );
}

#[test]
fn fleet_is_byte_identical_to_the_study_across_scales_and_shard_sizes() {
    // The oracle study scans every die on the calling thread; the executor
    // binary-searches shards on the pool.
    for (dies, shard_dies) in [(1, 4), (24, 5), (57, 8), (200, 2048)] {
        let params = FleetParams {
            yields: YieldParams {
                dies,
                ..YieldParams::smoke()
            },
            shard_dies,
        };
        let fleet = FleetStudy::run_parallel(&params);
        let oracle = yield_oracle::study(&params);
        assert_eq!(fleet, oracle, "dies={dies} shard_dies={shard_dies}");
        assert_eq!(
            fleet_csv(&fleet),
            fleet_csv(&oracle),
            "dies={dies} shard_dies={shard_dies}"
        );
    }
}

#[test]
fn interrupted_checkpoint_campaign_resumes_bit_identically() {
    let params = FleetParams {
        yields: YieldParams {
            dies: 40,
            ..YieldParams::smoke()
        },
        shard_dies: 6,
    };
    let dir = std::env::temp_dir().join(format!("vccmin-fleet-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let uninterrupted = FleetStudy::run_parallel(&params);

    // "Interrupt" a campaign by seeding the directory with only a prefix of
    // its shards, one of them torn mid-write (truncated) and one corrupted.
    let store = CheckpointStore::open(&dir, params.fingerprint()).unwrap();
    let cold = FleetStudy::run_checkpointed(&params, &dir).unwrap();
    assert_eq!(cold, uninterrupted);
    for s in [4, 5, 6] {
        std::fs::remove_file(store.shard_path(s)).unwrap();
    }
    let torn = std::fs::read(store.shard_path(2)).unwrap();
    std::fs::write(store.shard_path(2), &torn[..torn.len() / 2]).unwrap();
    let mut flipped = std::fs::read(store.shard_path(0)).unwrap();
    flipped[20] ^= 0x01;
    std::fs::write(store.shard_path(0), &flipped).unwrap();

    let resumed = FleetStudy::run_checkpointed(&params, &dir).unwrap();
    assert_eq!(resumed, uninterrupted, "resume must be bit-identical");
    assert_eq!(fleet_csv(&resumed), fleet_csv(&uninterrupted));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sketch_cross_checks_the_iid_closed_forms() {
    // In the i.i.d. limit the fraction of dies whose Vcc-min is at or below a
    // voltage — read off the fleet's exact quantile sketch — is the Monte-Carlo
    // yield at that voltage, which must track the paper's closed forms.
    let bridge = PfailVoltageModel::ispass2010();
    let params = FleetParams::new(YieldParams {
        dies: 400,
        variation: VariationModel::iid(bridge),
        ..YieldParams::quick()
    });
    let fleet = FleetStudy::run_parallel(&params);
    let geom = CacheGeometry::ispass2010_l1().to_array_geometry();
    let labels = YieldStudy::scheme_labels();
    let block = labels.iter().position(|l| l == "block disabling").unwrap();
    let sketch = fleet.sketch(block);

    // CDF over the ascending sketch bins: dies operational at bin voltage v.
    let mut cumulative = 0u64;
    for (&v, &count) in sketch.bins().iter().zip(sketch.counts()) {
        cumulative += count;
        let empirical = cumulative as f64 / fleet.dies as f64;
        let analytical =
            yield_model::block_disable_yield(&geom, bridge.pfail(v), params.yields.min_capacity);
        assert!(
            (analytical - empirical).abs() < 0.05,
            "block-disabling at V={v}: closed-form {analytical} vs sketch CDF {empirical}"
        );
    }
    // The sketch's extremes agree with the summary table's best/worst cells.
    let summary = fleet.vccmin_summary();
    let (_, values) = &summary.rows[block];
    assert_eq!(values[1], sketch.min(), "best Vcc-min");
    assert_eq!(values[2], sketch.max(), "worst Vcc-min");
    assert_eq!(values[0], sketch.mean(), "mean Vcc-min");
}
