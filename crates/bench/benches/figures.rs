//! One benchmark per paper artifact.
//!
//! Each benchmark runs its experiment end-to-end at `Scale::Tiny` with
//! trimmed parameter lists, so `cargo bench` both (a) regenerates every
//! table/figure shape in miniature and (b) tracks the wall-clock cost
//! of each experiment. Full paper-scale numbers come from the
//! `cr-experiments` binaries. Results land in
//! `target/bench/BENCH_figures.json`.

use cr_bench::harness::Group;
use cr_experiments::{
    ext_ablation, ext_distribution, ext_nonuniform, ext_par, fig09, fig10, fig11, fig12,
    fig14ab, fig14cd, fig14ef, fig15, fig16, tab_hardware, tab_padding, tab_pds, Run,
    Scale,
};

fn main() {
    let mut g = Group::new("figures");
    let tiny = Run::new(Scale::Tiny);
    g.sample_size(10);

    g.bench("fig09_cr_base", || {
        fig09::run(
            &tiny,
            &fig09::Config {
                message_lengths: vec![16],
                seed: 1,
            },
        )
    });

    g.bench("fig10_timeout", || {
        fig10::run(
            &tiny,
            &fig10::Config {
                timeouts: vec![8, 64],
                loads: vec![0.3],
                message_len: 16,
                seed: 2,
            },
        )
    });

    g.bench("fig11_backoff", || {
        fig11::run(
            &tiny,
            &fig11::Config {
                static_gaps: vec![16],
                timeout: 32,
                message_len: 16,
                seed: 3,
            },
        )
    });

    g.bench("fig12_killscheme", || {
        fig12::run(
            &tiny,
            &fig12::Config {
                timeout: 32,
                message_len: 16,
                extra_loads: vec![0.55],
                seed: 4,
            },
        )
    });

    g.bench("fig14ab_buffers", || {
        fig14ab::run(
            &tiny,
            &fig14ab::Config {
                dor_depths: vec![2, 16],
                cr_depths: vec![2],
                message_len: 16,
                seed: 5,
            },
        )
    });

    g.bench("fig14cd_vcs", || {
        fig14cd::run(
            &tiny,
            &fig14cd::Config {
                vc_counts: vec![2],
                dor_total_buffer: 8,
                message_len: 16,
                seed: 6,
            },
        )
    });

    g.bench("fig14ef_interface", || {
        fig14ef::run(
            &tiny,
            &fig14ef::Config {
                channels: vec![1, 2],
                message_len: 16,
                seed: 7,
            },
        )
    });

    g.bench("fig15_fcr_transient", || {
        fig15::run(
            &tiny,
            &fig15::Config {
                fault_rates: vec![0.0, 1e-3],
                load: 0.15,
                message_len: 12,
                seed: 8,
            },
        )
    });

    g.bench("fig16_fcr_permanent", || {
        fig16::run(
            &tiny,
            &fig16::Config {
                dead_links: vec![0, 4],
                load: 0.1,
                message_len: 12,
                misroute_budget: 8,
                seed: 9,
            },
        )
    });

    g.bench("tab_pds", || {
        tab_pds::run(
            &tiny,
            &tab_pds::Config {
                adaptive_vcs: 1,
                message_len: 16,
                seed: 10,
            },
        )
    });

    g.bench("tab_padding", || {
        tab_padding::run(
            &tiny,
            &tab_padding::Config {
                message_lengths: vec![4, 32],
                channel_latencies: vec![1],
                load: 0.1,
                seed: 11,
            },
        )
    });

    g.bench("tab_hardware", || {
        tab_hardware::run(&tab_hardware::Config::default())
    });

    g.bench("ext_distribution", || {
        ext_distribution::run(
            &tiny,
            &ext_distribution::Config {
                loads: vec![0.3],
                seed: 13,
            },
        )
    });

    g.bench("ext_nonuniform", || {
        ext_nonuniform::run(
            &tiny,
            &ext_nonuniform::Config {
                message_len: 16,
                seed: 12,
            },
        )
    });

    g.bench("ext_ablation", || {
        ext_ablation::run(&tiny, &ext_ablation::Config::default())
    });

    g.bench("ext_par", || {
        ext_par::run(
            &tiny,
            &ext_par::Config {
                message_len: 16,
                seed: 14,
            },
        )
    });

    g.finish();
}
