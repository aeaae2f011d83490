#![forbid(unsafe_code)]
//! Strict sim crate with violations only a call-graph pass can tie to
//! the hot root: a helper-of-a-helper allocation, a lossy address cast,
//! unbounded recursion, and a wall-clock leak through the sweep crate.

pub fn helper(addr: u64) -> u64 {
    deeper(addr)
}

fn deeper(addr: u64) -> u64 {
    let v: Vec<u64> = vec![addr];
    let small = addr as u32;
    walk(v.len() as u64 + u64::from(small)) + justified(addr)
}

fn walk(n: u64) -> u64 {
    if n == 0 {
        0
    } else {
        walk(n - 1)
    }
}

pub fn justified(addr: u64) -> u64 {
    // INVARIANT: epoch-boundary staging, amortized off the hot path.
    let v: Vec<u64> = vec![addr];
    v[0]
}

pub fn timestamp() -> u64 {
    chameleon_sweep::progress_now()
}

pub struct Registry;

/// `dead-pub`: nothing calls it.
pub fn unused() -> u64 {
    0
}

/// `dead-pub`: only a `#[cfg(test)]` module calls it.
pub fn test_only() -> u64 {
    1
}

/// Not `dead-pub`: rustc's own dead-code lint covers `pub(crate)`.
pub(crate) fn crate_visible() -> u64 {
    2
}

/// Not `dead-pub`: only `examples/demo.rs` calls it.
pub fn example_only() -> u64 {
    3
}

/// Not `dead-pub`: a trait-impl method.
impl std::fmt::Display for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "registry")
    }
}

pub struct Ledger(u64);

impl Ledger {
    /// Not `dead-pub`: only ever passed by path, `.map(Ledger::new)`.
    pub fn new(v: u64) -> Ledger {
        Ledger(v)
    }

    /// Not `dead-pub`: called by path, `Ledger::total(…)`.
    pub fn total(ledgers: &[Ledger]) -> u64 {
        ledgers.iter().map(|l| l.0).sum()
    }
}

/// Machine shape, built and read by `examples/demo.rs`.
pub struct Shape {
    pub cores: usize,
    pub sockets: usize,
}

impl Shape {
    /// `dead-pub`: the example only reads the field of the same name.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Not `dead-pub`: the example calls it, `shape.sockets()`.
    pub fn sockets(&self) -> usize {
        self.sockets
    }
}

pub fn ledgers(values: &[u64]) -> u64 {
    let ledgers: Vec<Ledger> = values.iter().copied().map(Ledger::new).collect();
    Ledger::total(&ledgers)
}

#[cfg(test)]
mod tests {
    #[test]
    fn calls_test_only() {
        assert_eq!(super::test_only(), 1);
    }
}
