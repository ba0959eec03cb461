//! Runs the whole reproduction: every table and figure, in order, writing
//! each to `results/`. Sample counts and iteration counts can be reduced
//! for a smoke run:
//!
//! ```text
//! STANCE_SAMPLES=5 STANCE_ITERATIONS=50 cargo run --release -p stance-bench --bin repro_all
//! ```

use std::time::Instant;

fn main() {
    let t0 = Instant::now();
    let run = |name: &str, f: &dyn Fn() -> String| {
        let start = Instant::now();
        eprintln!(">> {name} ...");
        stance_bench::emit(name, &f());
        eprintln!("   {name} done in {:.1}s", start.elapsed().as_secs_f64());
    };

    run("fig2", &stance_bench::figures::fig2);
    run("fig3", &stance_bench::figures::fig3);
    run("fig4", &stance_bench::figures::fig4);
    run("fig5", &stance_bench::figures::fig5);
    run("fig9", &|| {
        let mesh =
            stance::scenarios::paper_mesh_ordered(stance::locality::OrderingMethod::Natural, 42);
        stance_bench::figures::fig9(&mesh)
    });
    run("table1", &stance_bench::tables::table1);
    run("table2", &stance_bench::tables::table2);
    run("table3", &stance_bench::tables::table3);
    run("table4", &stance_bench::tables::table4);
    run("table5", &stance_bench::tables::table5);

    eprintln!("all experiments done in {:.1}s", t0.elapsed().as_secs_f64());
}
