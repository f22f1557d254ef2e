//! Prints the experiment report (E1–E12 and the ablations) to stdout.
//!
//! Run with `cargo run -p uniint-bench --bin experiments --release`.
//! Renders the catalogue's full sweeps as one table per experiment.
//! Counts, bytes and virtual-clock columns come from the deterministic
//! simulator and reproduce exactly; `µs` columns are wall-clock medians.

use uniint_bench::{Row, Scale, CATALOGUE};

/// Prints `rows` under one header holding every column any row uses, in
/// first-use order; a row without a column shows `-` there.
fn print_table(label: &str, rows: &[Row]) {
    let mut columns: Vec<&str> = Vec::new();
    for (c, _) in rows.iter().flat_map(|r| &r.cells) {
        if !columns.contains(c) {
            columns.push(c);
        }
    }
    let mut table = vec![[label]
        .iter()
        .chain(&columns)
        .map(|c| c.to_string())
        .collect::<Vec<_>>()];
    for r in rows {
        let mut line = vec![r.label.clone()];
        for c in &columns {
            let cell = r.cells.iter().find(|(rc, _)| rc == c);
            line.push(cell.map_or("-".into(), |(_, m)| m.display()));
        }
        table.push(line);
    }
    let widths: Vec<usize> = (0..table[0].len())
        .map(|i| {
            table
                .iter()
                .map(|l| l[i].chars().count())
                .max()
                .unwrap_or(0)
        })
        .collect();
    for line in table {
        let rest: Vec<String> = line[1..]
            .iter()
            .zip(&widths[1..])
            .map(|(s, w)| format!("{s:>w$}"))
            .collect();
        println!("{:<w$}  {}", line[0], rest.join("  "), w = widths[0]);
    }
}

fn main() {
    println!("Universal Interaction with Networked Home Appliances (ICDCS 2002)");
    println!("Experiment report — see EXPERIMENTS.md for interpretation.");
    for e in CATALOGUE {
        println!("\n== {} ==", e.title);
        print_table(e.label, &(e.run)(Scale::Full));
    }
}
