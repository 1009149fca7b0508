//! §7.3's in-text "table": porting LWS to Jade grew the program from
//! 1216 to 1358 lines of C and required 23 Jade constructs.
//!
//! We report the equivalent static counts for this reproduction: the
//! source lines of the serial LWS modules versus the Jade version,
//! and the number of Jade constructs (`withonly` / `with_cont` /
//! `create`) the port added.
//!
//! Run: `cargo run --release -p jade-bench --bin t1_constructs`

fn count_lines(src: &str) -> (usize, usize) {
    let total = src.lines().count();
    let code = src
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with("//") && !l.starts_with("//!"))
        .count();
    (total, code)
}

fn count_tokens(src: &str, needle: &str) -> usize {
    src.matches(needle).count()
}

fn main() {
    let model = include_str!("../../../apps/src/lws/model.rs");
    let serial = include_str!("../../../apps/src/lws/serial.rs");
    let jade = include_str!("../../../apps/src/lws/jade.rs");

    let (model_total, model_code) = count_lines(model);
    let (serial_total, serial_code) = count_lines(serial);
    let (jade_total, jade_code) = count_lines(jade);

    println!("LWS source accounting (this reproduction)\n");
    println!("{:<28}{:>12}{:>12}", "module", "lines", "code lines");
    println!("{:<28}{:>12}{:>12}", "lws/model.rs  (shared)", model_total, model_code);
    println!("{:<28}{:>12}{:>12}", "lws/serial.rs (serial)", serial_total, serial_code);
    println!("{:<28}{:>12}{:>12}", "lws/jade.rs   (Jade port)", jade_total, jade_code);

    let withonly = count_tokens(jade, ".withonly(") + count_tokens(jade, ".withonly_ir(");
    let with_cont = count_tokens(jade, ".with_cont(");
    let creates = count_tokens(jade, ".create_named(");
    let rd = count_tokens(jade, "s.rd(") + count_tokens(jade, "s.rd_wr(");
    let wr = count_tokens(jade, "s.wr(");
    let dfs = count_tokens(jade, "s.df_rd(") + count_tokens(jade, "s.df_wr(");

    println!("\nJade constructs in the LWS port:");
    println!("  withonly sites:            {withonly}");
    println!("  with-cont sites:           {with_cont}");
    println!("  shared-object allocations: {creates}");
    println!("  access declarations (rd/rd_wr/wr/df_*): {}", rd + wr + dfs);
    println!("  total Jade constructs:     {}", withonly + with_cont + creates + rd + wr + dfs);
    println!("\npaper (§7.3): 1216 -> 1358 lines of C, 23 Jade constructs added;");
    println!("the port's footprint is the same species: a handful of task and");
    println!("declaration sites layered over unchanged numerical code.");

    assert!(withonly >= 3, "LWS must create force/reduce/integrate tasks");
    assert!(creates >= 4, "positions/velocities/forces/energies objects expected");
}
