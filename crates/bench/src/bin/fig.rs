//! Reproduces one table or figure of the NOMAD paper, chosen by id:
//! `fig table1`, `fig table2`, `fig fig5` … `fig fig23` (see DESIGN.md for
//! the mapping).  Prints CSV series to stdout; set NOMAD_SCALE=standard
//! for larger runs.
fn main() {
    let mut ids = vec!["table1", "table2"];
    ids.extend(nomad_eval::figures::all_figure_ids());
    let id = nomad_bench::handle_cli_args_id(
        "fig",
        "Reproduces one table or figure of the NOMAD paper (see DESIGN.md for the mapping)",
        &ids,
    );
    match id.as_str() {
        "table1" => print!("{}", nomad_eval::figures::table1()),
        "table2" => {
            let scale = nomad_eval::ReproScale::from_env();
            print!("{}", nomad_eval::figures::table2(&scale));
        }
        figure => nomad_bench::run_figure(figure),
    }
}
