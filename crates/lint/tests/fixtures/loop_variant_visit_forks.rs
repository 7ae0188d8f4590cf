//! Fixture: the batched visit fork inside a loop with all-literal
//! arguments — every iteration derives the same visit contexts.
pub fn crawl_all(ctx: &SimContext, rounds: usize) -> Vec<Visit> {
    let mut out = Vec::new();
    for _ in 0..rounds {
        for visit in ctx.visit_forks("site0001.example", 8) {
            out.push(run(visit));
        }
    }
    out
}
