// Fixture: L003 fires on thread spawns in value-path code, but not in a
// test region.
pub fn forked_rows(rows: &mut [f32]) {
    let (left, right) = rows.split_at_mut(rows.len() / 2);
    std::thread::scope(|scope| {
        scope.spawn(|| left.fill(0.0));
        right.fill(0.0);
    });
}

pub fn detached() {
    std::thread::spawn(|| ()).join().ok();
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_spawn() {
        std::thread::spawn(|| ()).join().unwrap();
    }
}
