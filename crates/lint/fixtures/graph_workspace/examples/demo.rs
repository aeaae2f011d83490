//! Drives the fixture facade. The linter never builds it: it reads the
//! names an example uses, which keep those pub fns off `dead-pub`.

fn main() {
    let mut sys = graph_fixture::System {
        engine: graph_fixture::Engine,
    };
    let _ = sys.access(0);
    let _ = chameleon_core::timestamp();
    chameleon_core::publish(&mut chameleon_core::Registry);
    let _ = chameleon_core::ledgers(&[1, 2]);
    let _ = chameleon_core::example_only();
}
