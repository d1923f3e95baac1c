//! Workspace-level tests of the fleet-scale yield executor
//! (`vccmin_experiments::fleet` + `vccmin_experiments::checkpoint`):
//!
//! * the streaming, sharded, binary-searching executor is **byte-identical**
//!   to the materializing `YieldStudy` at the golden quick() scale (so routing
//!   the `vccmin-repro yield` CLI through the fleet path cannot move the
//!   snapshot);
//! * a checkpointed campaign that is interrupted (shards deleted and
//!   corrupted) resumes to the same bytes as an uninterrupted run;
//! * property test: the binary-searched minimum operational voltage equals
//!   the linear-scan reference for every registry scheme across randomized
//!   campaigns (population, grid and seed);
//! * the per-scheme quantile sketch cross-checks against the closed forms of
//!   `vccmin_analysis::yield_model` in the i.i.d. limit.

use proptest::prelude::*;

use vccmin_core::analysis::yield_model;
use vccmin_core::experiments::checkpoint::CheckpointStore;
use vccmin_core::experiments::fleet::{FleetParams, FleetStudy};
use vccmin_core::experiments::yield_study::{YieldParams, YieldStudy};
use vccmin_core::{CacheGeometry, PfailVoltageModel, VariationModel};

const GOLDEN: &str = include_str!("../golden/yield.csv");

fn study_csv(study: &YieldStudy) -> String {
    format!(
        "{}{}",
        study.yield_curve().to_csv(),
        study.vccmin_summary().to_csv()
    )
}

fn fleet_csv(fleet: &FleetStudy) -> String {
    format!(
        "{}{}",
        fleet.yield_curve().to_csv(),
        fleet.vccmin_summary().to_csv()
    )
}

/// The fleet campaign on the calling thread: the checkpointed executor with
/// `parallel = false`, in a scratch directory of its own.
fn one_worker_fleet(params: &FleetParams) -> FleetStudy {
    let dir = std::env::temp_dir().join(format!(
        "vccmin-fleet-one-worker-{}-{}",
        std::process::id(),
        params.fingerprint()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let fleet = FleetStudy::run_checkpointed(params, &dir, false).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    fleet
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
    for (dies, shard_dies) in [(1, 4), (24, 5), (57, 8), (200, 2048)] {
        let yields = YieldParams {
            dies,
            ..YieldParams::smoke()
        };
        let study = YieldStudy::run_parallel(&yields);
        for executor in ["one worker", "pool"] {
            let params = FleetParams {
                yields: yields.clone(),
                shard_dies,
            };
            let fleet = if executor == "one worker" {
                one_worker_fleet(&params)
            } else {
                FleetStudy::run_parallel(&params)
            };
            assert_eq!(
                fleet_csv(&fleet),
                study_csv(&study),
                "dies={dies} shard_dies={shard_dies} {executor}"
            );
        }
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
    let cold = FleetStudy::run_checkpointed(&params, &dir, false).unwrap();
    assert_eq!(cold, uninterrupted);
    for s in [4, 5, 6] {
        std::fs::remove_file(store.shard_path(s)).unwrap();
    }
    let torn = std::fs::read(store.shard_path(2)).unwrap();
    std::fs::write(store.shard_path(2), &torn[..torn.len() / 2]).unwrap();
    let mut flipped = std::fs::read(store.shard_path(0)).unwrap();
    flipped[20] ^= 0x01;
    std::fs::write(store.shard_path(0), &flipped).unwrap();

    let resumed = FleetStudy::run_checkpointed(&params, &dir, true).unwrap();
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tentpole's core soundness claim: binary-searching each die's
    /// operational true-prefix over the nested voltage grid finds exactly the
    /// minimum operational voltage a linear scan finds, for every scheme in
    /// the registry, whatever the campaign parameters.
    #[test]
    fn binary_search_equals_linear_scan_for_every_registry_scheme(
        dies in 1usize..14,
        steps in 2usize..9,
        v_low_milli in 440u64..520,
        span_milli in 20u64..240,
        master_seed in 0u64..1_000_000,
        shard_dies in 1usize..6,
        include_l2 in any::<bool>(),
    ) {
        let v_low = v_low_milli as f64 / 1000.0;
        let yields = YieldParams {
            dies,
            steps,
            v_low,
            v_high: v_low + span_milli as f64 / 1000.0,
            master_seed,
            include_l2,
            ..YieldParams::quick()
        };
        // Linear-scan reference: probe every grid voltage per die.
        let study = YieldStudy::run_parallel(&yields);
        let (hist, dead) = study.min_voltage_histogram();
        // Binary-searched fleet executor over the same population.
        let fleet = FleetStudy::run_parallel(&FleetParams { yields, shard_dies });
        prop_assert_eq!(&fleet.hist, &hist);
        prop_assert_eq!(&fleet.dead, &dead);
        prop_assert_eq!(fleet_csv(&fleet), study_csv(&study));
        // Scheme by scheme, the sketch holds exactly the live dies' minima.
        for (i, _) in YieldStudy::scheme_labels().iter().enumerate() {
            let expected: u64 = study
                .dies
                .iter()
                .filter(|d| d.min_voltage[i].is_some())
                .count() as u64;
            prop_assert_eq!(fleet.sketch(i).total(), expected);
        }
    }
}
