//! Seeded input generation. Every workload draws its inputs from here,
//! so one `--seed` always yields the same DSL texts, job specs and
//! request order, and the program under test only ever sees the
//! generated text.

use tce_ir::fixtures::{four_index_fused, two_index_fused, two_index_paper};
use tce_ir::{gen_network, to_dsl, to_network_dsl, NetworkGenConfig};
use tce_serve::JobSpec;

/// Gibibyte.
pub const GB: u64 = 1 << 30;

/// splitmix64: a small, well-mixed, seedable generator.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose stream is fixed by `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// Derives an independent stream seed from a parent seed and a label.
pub fn mix(seed: u64, label: u64) -> u64 {
    Rng::new(seed ^ label.wrapping_mul(0xa076_1d64_78bd_642f)).next_u64()
}

/// One program of a request pool, as DSL text plus its memory limit.
#[derive(Clone, Debug)]
pub struct PoolProgram {
    /// Stable label, used in job names and failure messages.
    pub name: String,
    /// DSL source the program under test parses.
    pub text: String,
    /// Memory limit in bytes.
    pub mem_limit: u64,
    /// Whether the text is a contraction network (`network` DSL).
    pub network: bool,
    /// Synthesize with the test-scale disk profile (no minimum blocks).
    pub test_scale: bool,
}

/// The paper's Table 2 programs: the two-index transform at 1 GB, the
/// four-index transform at (140,120) and (190,180) at 2 GB, and the CCSD
/// doubles term (40,80) at 2 GB.
pub fn paper_programs() -> Vec<PoolProgram> {
    let dense = |name: &str, p: tce_ir::Program, mem_limit: u64| PoolProgram {
        name: name.to_string(),
        text: to_dsl(&p),
        mem_limit,
        network: false,
        test_scale: false,
    };
    vec![
        dense("two_index_1g", two_index_paper(), GB),
        dense("four_index_140", four_index_fused(140, 120), 2 * GB),
        dense("four_index_190", four_index_fused(190, 180), 2 * GB),
        dense("ccsd_40_80", ccsd_program(), 2 * GB),
    ]
}

fn ccsd_program() -> tce_ir::Program {
    tce_opmin::derive_program(&tce_opmin::ccsd_doubles_quadratic(40, 80))
}

/// Paper-scale four-index sizes of the warm pool, Table 2's two included.
const WARM_FOUR_INDEX: [(u64, u64); 6] = [
    (140, 120),
    (150, 130),
    (160, 140),
    (170, 150),
    (180, 170),
    (190, 180),
];

/// A seeded sparse contraction network at test scale.
fn network_program(name: &str, seed: u64, nodes: usize) -> PoolProgram {
    let dag = gen_network(&NetworkGenConfig {
        seed,
        nodes,
        min_extent: 8,
        max_extent: 20,
        ..NetworkGenConfig::default()
    });
    PoolProgram {
        name: name.to_string(),
        text: to_network_dsl(&dag),
        mem_limit: COLD_MEM,
        network: true,
        test_scale: true,
    }
}

/// Solver budget of network jobs: keeps a fresh network solve in the
/// same cost band as a test-scale dense one.
pub const NETWORK_BUDGET: u64 = 20_000;

/// The base programs of `serve_warm`: the four-index transform at six
/// paper-scale sizes, the CCSD term, and two seeded sparse networks.
pub fn warm_bases(seed: u64) -> Vec<PoolProgram> {
    let mut out: Vec<PoolProgram> = WARM_FOUR_INDEX
        .iter()
        .map(|&(n, v)| PoolProgram {
            name: format!("four_index_{n}_{v}"),
            text: to_dsl(&four_index_fused(n, v)),
            mem_limit: 2 * GB,
            network: false,
            test_scale: false,
        })
        .collect();
    out.push(PoolProgram {
        name: "ccsd_40_80".to_string(),
        text: to_dsl(&ccsd_program()),
        mem_limit: 2 * GB,
        network: false,
        test_scale: false,
    });
    out.push(network_program("network_a", mix(seed, 0xa), 3));
    out.push(network_program("network_b", mix(seed, 0xb), 2));
    out
}

/// The job spec a pool program is submitted as.
pub fn spec_for(p: &PoolProgram, name: String, seed: Option<u64>) -> JobSpec {
    JobSpec {
        name,
        program: p.text.clone(),
        mem_limit: p.mem_limit,
        test_scale: p.test_scale,
        strategy: None,
        seed,
        budget: p.network.then_some(NETWORK_BUDGET),
        telemetry: false,
        objective: None,
        timeout_ms: None,
    }
}

/// Base memory limit of test-scale programs.
const COLD_MEM: u64 = 64 * 1024;

/// Test-scale dense shapes of `serve_cold`: (four-index, n, v).
const COLD_DENSE: [(bool, u64, u64); 4] = [
    (false, 64, 48),
    (false, 48, 64),
    (false, 64, 64),
    (true, 12, 10),
];

/// The `i`-th test-scale dense program of `serve_cold` at the base
/// memory limit: the fused two-index transform at three sizes or a small
/// four-index transform.
fn cold_dense_program(i: usize) -> PoolProgram {
    let (four, n, v) = COLD_DENSE[i];
    let (name, program) = if four {
        ("four_index", four_index_fused(n, v))
    } else {
        ("two_index", two_index_fused(n, v))
    };
    PoolProgram {
        name: format!("{name}_{n}_{v}"),
        text: to_dsl(&program),
        mem_limit: COLD_MEM,
        network: false,
        test_scale: true,
    }
}

/// Every test-scale dense program of `serve_cold`.
pub fn cold_dense_programs() -> Vec<PoolProgram> {
    (0..COLD_DENSE.len()).map(cold_dense_program).collect()
}

/// Seeded networks `serve_cold` draws from (each request still gets a
/// unique solver seed and memory limit).
const COLD_NETWORKS: usize = 8;

/// The `k`-th request of `serve_cold` under `seed`. Three quarters are
/// test-scale dense programs, one quarter sparse networks with a capped
/// budget. The solver seed and the memory limit both depend on `k`
/// (the limit cycles through a small band above 64 KiB), so every
/// request has its own fingerprint.
pub fn cold_request(seed: u64, k: u64) -> JobSpec {
    let mut rng = Rng::new(mix(seed, k));
    let program = if rng.below(4) == 3 {
        let i = rng.below(COLD_NETWORKS);
        network_program(&format!("network_{i}"), mix(seed, i as u64), 2)
    } else {
        cold_dense_program(rng.below(COLD_DENSE.len()))
    };
    let mut spec = spec_for(&program, format!("cold-{k}"), Some(mix(seed, 0x5eed) ^ k));
    spec.mem_limit = COLD_MEM + 8 * (k % 128);
    spec
}

/// Keywords of the declaration lines that name an array.
const DECL_KEYWORDS: [&str; 3] = ["input", "intermediate", "output"];

/// Names a DSL text declares: index names (from `range` lines) and
/// array names (from `input`/`intermediate`/`output` lines).
fn declared_names(text: &str) -> (Vec<String>, Vec<String>) {
    let (mut indices, mut arrays) = (Vec::new(), Vec::new());
    for line in text.lines().map(str::trim) {
        let Some((head, rest)) = line.split_once(char::is_whitespace) else {
            continue;
        };
        if head == "range" {
            for decl in rest.split(',') {
                if let Some((name, _)) = decl.split_once('=') {
                    indices.push(name.trim().to_string());
                }
            }
        } else if DECL_KEYWORDS.contains(&head) {
            if let Some((name, _)) = rest.split_once('[') {
                arrays.push(name.trim().to_string());
            }
        }
    }
    (indices, arrays)
}

/// Renames every identifier token of `text` through `map`.
fn substitute(text: &str, map: &[(String, String)]) -> String {
    let mut out = String::with_capacity(text.len());
    let mut word = String::new();
    let flush = |word: &mut String, out: &mut String| {
        match map.iter().find(|(from, _)| from == word) {
            Some((_, to)) => out.push_str(to),
            None => out.push_str(word),
        }
        word.clear();
    };
    for c in text.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            word.push(c);
        } else {
            flush(&mut word, &mut out);
            out.push(c);
        }
    }
    flush(&mut word, &mut out);
    out
}

/// An alpha-renamed copy of a dense or network DSL text: index names are
/// permuted among themselves, and so are array names. The program is
/// isomorphic to the original, so its canonical fingerprint is the same,
/// but the text differs.
pub fn rename(text: &str, rng: &mut Rng) -> String {
    let (indices, arrays) = declared_names(text);
    loop {
        let mut map = Vec::new();
        for names in [&indices, &arrays] {
            let mut permuted = names.clone();
            rng.shuffle(&mut permuted);
            map.extend(names.iter().cloned().zip(permuted));
        }
        let renamed = substitute(text, &map);
        if renamed != text {
            return renamed;
        }
    }
}

/// `count` distinct alpha-renamed variants of `text` (the original not
/// among them).
pub fn variants(text: &str, count: usize, rng: &mut Rng) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    while out.len() < count {
        let v = rename(text, rng);
        if !out.contains(&v) {
            out.push(v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rename_permutes_declared_names_only() {
        let text = to_dsl(&four_index_fused(14, 12));
        let renamed = rename(&text, &mut Rng::new(3));
        assert_ne!(renamed, text);
        let (mut a, mut b) = (declared_names(&text), declared_names(&renamed));
        for v in [&mut a.0, &mut a.1, &mut b.0, &mut b.1] {
            v.sort();
        }
        assert_eq!(a, b, "a permutation keeps the set of names");
        assert!(tce_ir::parse_program(&renamed).is_ok());
    }

    #[test]
    fn cold_requests_are_seeded() {
        assert_eq!(cold_request(7, 3).program, cold_request(7, 3).program);
        assert_ne!(cold_request(7, 3).seed, cold_request(7, 4).seed);
    }
}
