//! Capacity planning (§I): find the smallest cluster that meets an SLA
//! target under an anticipated workload — the model's headline use case.
//!
//! Question: how many storage devices do we need so that 95% of requests
//! complete within 50 ms at 300 req/s? And how does the answer change if
//! the workload doubles?
//!
//! Run with: `cargo run --release --example capacity_planning`

use cosmodel::distr::{Degenerate, Gamma};
use cosmodel::model::{
    elastic_plan, min_devices, DeviceParams, FrontendParams, ModelVariant, SlaGoal, SystemModel,
    SystemParams,
};
use cosmodel::queueing::from_distribution;

/// Candidate cluster sizes run from 1 to this many devices.
const MAX_DEVICES: usize = 64;

/// One device at 1 req/s with 1.1 data reads per request and benchmarked
/// Gamma disk laws; the planner scales it to each cluster size's share of
/// the rate.
fn device(processes: usize) -> DeviceParams {
    DeviceParams {
        arrival_rate: 1.0,
        data_read_rate: 1.1,
        miss_index: 0.3,
        miss_meta: 0.3,
        miss_data: 0.5,
        index_disk: from_distribution(Gamma::new(3.0, 250.0)),
        meta_disk: from_distribution(Gamma::new(2.5, 312.5)),
        data_disk: from_distribution(Gamma::new(3.5, 245.0)),
        parse_be: from_distribution(Degenerate::new(0.0005)),
        processes,
    }
}

fn frontend() -> FrontendParams {
    FrontendParams {
        arrival_rate: 1.0,
        processes: 3,
        parse_fe: from_distribution(Degenerate::new(0.0003)),
    }
}

/// P(latency <= `sla`) of the cluster the planner found: `devices` copies
/// of the device, sharing `rate` evenly, as `min_devices` builds it.
fn attainment(rate: f64, devices: usize, processes: usize, sla: f64) -> f64 {
    let params = SystemParams {
        frontend: frontend(),
        devices: vec![device(processes); devices],
    };
    SystemModel::new(&params.scaled_to_rate(rate), ModelVariant::Full)
        .expect("the planner's answer is stable")
        .fraction_meeting_sla(sla)
}

fn main() {
    let goal = SlaGoal::new(0.050, 0.95);
    let variant = ModelVariant::Full;
    println!("Capacity planning: smallest device count with P(latency <= 50ms) >= 95%\n");
    println!(
        "{:>12} {:>10} {:>16}",
        "rate (req/s)", "devices", "P(<=50ms)"
    );
    let rates = [150.0, 300.0, 450.0, 600.0, 900.0, 1200.0];
    let plan = elastic_plan(&device(1), &frontend(), variant, goal, &rates, MAX_DEVICES);
    for (rate, devices) in rates.into_iter().zip(plan) {
        match devices {
            Some(devices) => {
                let p = attainment(rate, devices, 1, goal.sla);
                println!("{rate:>12.0} {devices:>10} {p:>16.4}")
            }
            None => println!("{rate:>12.0} {:>10} {:>16}", ">64", "-"),
        }
    }

    println!("\nWhat-if: same question with more processes per device.");
    println!("Under the model, multi-process devices look WORSE: the M/M/1/K");
    println!("substitution (Section III-B) replaces the Gamma disk tails with");
    println!("exponential ones, inflating predicted tail latencies - the same");
    println!("systematic error the paper blames for its larger S16 errors:");
    println!(
        "{:>12} {:>10} {:>10} {:>16}",
        "rate (req/s)", "N_be", "devices", "P(<=50ms)"
    );
    for rate in [300.0, 600.0] {
        for processes in [1usize, 4, 16] {
            let template = device(processes);
            match min_devices(&template, &frontend(), variant, goal, rate, MAX_DEVICES) {
                Some(d) => {
                    let p = attainment(rate, d, processes, goal.sla);
                    println!("{rate:>12.0} {processes:>10} {d:>10} {p:>16.4}")
                }
                None => println!("{rate:>12.0} {processes:>10} {:>10} {:>16}", ">64", "-"),
            }
        }
    }
}
