//! Arms race: run the §4.2 simulator × detector tournament and print the
//! detection matrix (the measured counterpart of Fig. 3).
//!
//! Run with: `cargo run --example arms_race`

use hlisa_armsrace::{escalation, run_escalation, run_tournament, tournament, TournamentConfig};

fn main() {
    let config = TournamentConfig {
        sessions_per_agent: 4,
        ..TournamentConfig::default()
    };
    println!(
        "running {} sessions per simulator against 4 detector levels...\n",
        config.sessions_per_agent
    );
    let result = run_tournament(&config);

    println!("{}", tournament::report(&result));
    println!("Cells are detection rates. The staircase is Fig. 3's narrative:");
    println!("each simulator escalation defeats one more detector level, and only");
    println!("impersonating the enrolled user's own profile defeats level 4.\n");

    let rounds = run_escalation(&config);
    println!("{}", escalation::report(&rounds));
}
