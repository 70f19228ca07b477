//@ lint-as: crates/core/src/fixture.rs
fn fan_out(tasks: Vec<fn()>) {
    std::thread::scope(|s| {
        for t in tasks {
            s.spawn(move || t());
        }
    });
}

struct Nursery;
impl Nursery {
    // A method merely *named* scope is not a thread scope.
    fn scope(&self) -> i32 {
        42
    }
}

fn fine() -> i32 {
    Nursery.scope()
}
