//! Regenerates Figure 3 (arms-race detection matrix).
use hlisa_armsrace::{escalation, run_escalation, run_tournament, tournament, TournamentConfig};
fn main() {
    eprintln!("running the simulator x detector tournament...");
    let result = run_tournament(&TournamentConfig::default());
    println!("{}", tournament::report(&result));
    eprintln!("playing out the escalation sequence...");
    let rounds = run_escalation(&TournamentConfig {
        sessions_per_agent: 4,
        ..TournamentConfig::default()
    });
    println!("{}", escalation::report(&rounds));
}
