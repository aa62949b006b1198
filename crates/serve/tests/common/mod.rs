//! What the serving suites share.

/// A chain of `depth` elementwise statements over 48 elements, as `.pj`
/// source: the "seconds-long compile" fixture. Its `infl` compile on the
/// 2-core CI box takes 0.01 s at depth 16, 0.3 s at 64, 0.8 s at 96,
/// 1.8 s at 128, 2.8 s at 160 and 4.7 s at 192 in the dev profile the
/// tests build (release: 0.25, 0.7, 1.1, 2.4 and 3.9 s from depth 64) —
/// every caller names the depth whose window it needs, and a scheduler
/// speed-up means re-timing them.
pub fn slow_src(name: &str, depth: usize) -> String {
    let mut src = format!("kernel {name}\nparam N = 48\ntensor A[N]: f32\n");
    for s in 0..depth {
        src.push_str(&format!("tensor T{s}[N]: f32\n"));
    }
    for s in 0..depth {
        let prev = match s {
            0 => "A".to_string(),
            _ => format!("T{}", s - 1),
        };
        src.push_str(&format!(
            "stmt S{s} for (i in 0..N) T{s}[i] = {prev}[i] * 2.0\n"
        ));
    }
    src
}
