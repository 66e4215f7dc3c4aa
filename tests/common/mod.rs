//! Fixtures shared by the integration tests that search the model.

use cosmodel::distr::{Degenerate, Gamma};
use cosmodel::model::SystemParams;
use cosmodel::queueing::from_distribution;
use cosmodel::serve::{CalibrationBase, CalibratorConfig, OnlineCalibrator};
use cosmodel::storesim::{FleetConfig, FleetScenario};

fn base() -> CalibrationBase {
    CalibrationBase {
        index_law: from_distribution(Gamma::new(3.0, 250.0)),
        meta_law: from_distribution(Gamma::new(2.5, 312.5)),
        data_law: from_distribution(Gamma::new(3.5, 245.0)),
        parse_be: from_distribution(Degenerate::new(0.0005)),
        parse_fe: from_distribution(Degenerate::new(0.0003)),
        devices: 4,
        processes_per_device: 1,
        frontend_processes: 3,
    }
}

/// One fitted template per tenant of a seeded 8-tenant fleet — the fleet
/// shape the serving benchmark queries: 4 devices at 40 req/s — each
/// fitted from the last 30 s window of a 60 s stream.
pub fn fleet_fits(seed: u64) -> Vec<SystemParams> {
    let fleet = FleetScenario::new(FleetConfig {
        tenants: 8,
        devices: 4,
        rate_per_device: 40.0,
        duration: 60.0,
        seed,
    })
    .expect("valid fleet shape");
    (0..fleet.config().tenants)
        .map(|t| {
            let mut calibrator = OnlineCalibrator::new(base(), CalibratorConfig::default());
            for ev in fleet.events_for(t) {
                calibrator.ingest(&ev);
            }
            calibrator
                .try_fit(fleet.config().duration)
                .expect("every device carries traffic")
        })
        .collect()
}
