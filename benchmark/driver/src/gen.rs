//! Seeded input generation: the benchmark's `--seed` becomes request
//! bodies and event lists here; the product only ever sees those.

/// A 64-bit linear congruential generator (Knuth's MMIX constants),
/// reading the high bits, which are the well-mixed ones.
#[derive(Clone, Debug)]
pub struct Lcg(u64);

impl Lcg {
    /// A generator for `seed`, advanced once so small seeds diverge.
    pub fn new(seed: u64) -> Lcg {
        let mut g = Lcg(seed ^ 0x9E37_79B9_7F4A_7C15);
        g.next_u32();
        g
    }

    /// The next 32 random bits.
    pub fn next_u32(&mut self) -> u32 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 32) as u32
    }

    /// Uniform in `0..n` (`n ≥ 1`); the modulo bias is below 2⁻³² · n.
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u32() as u64 * n as u64) >> 32) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn between(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }
}

/// The catalogue a request pool draws from.
#[derive(Clone, Copy, Debug)]
pub struct Catalogue {
    /// Valid users are `0..users`.
    pub users: usize,
    /// Valid items are `1..=items`.
    pub items: usize,
}

/// `count` distinct `POST /recommend` bodies for `clients` closed-loop
/// clients. Pair `i` belongs to client `i % clients`, and its user is
/// congruent to `i` modulo `clients`, so no two clients ever share a user:
/// the server's per-user session cache then sees each client's stream
/// unmixed and the hit schedule below is exact. Sequence lengths are
/// uniform in `len.0..=len.1`.
pub fn request_pool(
    seed: u64,
    count: usize,
    clients: usize,
    cat: Catalogue,
    len: (usize, usize),
    k: usize,
) -> Vec<String> {
    assert!(clients >= 1 && cat.users >= clients && cat.items >= 1);
    let mut rng = Lcg::new(seed);
    let users_per_client = cat.users / clients;
    (0..count)
        .map(|i| {
            let user = clients * ((i / clients) % users_per_client) + i % clients;
            let n = rng.between(len.0, len.1);
            let seq: Vec<String> = (0..n)
                .map(|_| rng.between(1, cat.items).to_string())
                .collect();
            format!("{{\"user\":{user},\"seq\":[{}],\"k\":{k}}}", seq.join(","))
        })
        .collect()
}

/// Which pool entry client `client` sends as its `position`-th request.
///
/// Without repeats the client walks its share of the pool (`client`,
/// `client + clients`, …) cyclically. With `repeat_every = n`, every `n`-th
/// request re-sends the one before it — the same user with the same
/// history, so it is served from the session cache — and exactly `1/n` of
/// all requests are hits.
pub fn schedule(
    position: usize,
    client: usize,
    clients: usize,
    pool: usize,
    repeat_every: usize,
) -> usize {
    // Positions n-1, 2n-1, … repeat; the rest advance the walk.
    let repeats_before = (position + 1).checked_div(repeat_every).unwrap_or(0);
    let fresh = position - repeats_before;
    let share = (pool - client).div_ceil(clients);
    client + (fresh % share) * clients
}

/// `count` interaction events as the CLI's `--events` list
/// (`user:item,user:item,…`).
pub fn event_list(seed: u64, count: usize, cat: Catalogue) -> String {
    let mut rng = Lcg::new(seed);
    (0..count)
        .map(|_| format!("{}:{}", rng.below(cat.users), rng.between(1, cat.items)))
        .collect::<Vec<_>>()
        .join(",")
}

#[cfg(test)]
mod tests {
    use super::*;

    const CAT: Catalogue = Catalogue {
        users: 101,
        items: 37,
    };

    #[test]
    fn same_seed_same_requests_and_other_seed_other_requests() {
        let a = request_pool(5, 200, 2, CAT, (5, 50), 10);
        assert_eq!(a, request_pool(5, 200, 2, CAT, (5, 50), 10));
        assert_ne!(a, request_pool(6, 200, 2, CAT, (5, 50), 10));
        assert_eq!(event_list(5, 30, CAT), event_list(5, 30, CAT));
        assert_ne!(event_list(5, 30, CAT), event_list(6, 30, CAT));
    }

    #[test]
    fn pool_entries_are_in_range_distinct_and_split_users_by_client() {
        let pool = request_pool(1, 400, 2, CAT, (5, 50), 10);
        let mut seen = std::collections::BTreeSet::new();
        for (i, body) in pool.iter().enumerate() {
            let v = crate::json::parse(body).expect("valid JSON");
            let user = v.get("user").unwrap().as_u64().unwrap() as usize;
            assert!(user < CAT.users);
            assert_eq!(user % 2, i % 2, "a user belongs to one client");
            let seq = v.get("seq").unwrap().as_arr().unwrap();
            assert!((5..=50).contains(&seq.len()));
            for it in seq {
                assert!((1..=CAT.items as u64).contains(&it.as_u64().unwrap()));
            }
            assert!(seen.insert(body.clone()), "bodies are distinct");
        }
    }

    #[test]
    fn event_lists_are_in_range() {
        for pair in event_list(3, 500, CAT).split(',') {
            let (u, i) = pair.split_once(':').unwrap();
            assert!(u.parse::<usize>().unwrap() < CAT.users);
            assert!((1..=CAT.items).contains(&i.parse::<usize>().unwrap()));
        }
    }

    #[test]
    fn every_fifth_request_repeats_the_previous_one() {
        let (clients, pool) = (2, 4000);
        for client in 0..clients {
            let walk: Vec<usize> = (0..10_000)
                .map(|p| schedule(p, client, clients, pool, 5))
                .collect();
            let mut hits = 0;
            for p in 1..walk.len() {
                assert_eq!(walk[p] % clients, client, "stays in its share");
                if walk[p] == walk[p - 1] {
                    assert_eq!(p % 5, 4, "only the scheduled slots repeat");
                    hits += 1;
                }
            }
            assert_eq!(hits, walk.len() / 5, "exactly one request in five");
        }
    }

    #[test]
    fn without_repeats_the_walk_covers_the_share_then_cycles() {
        let walk: Vec<usize> = (0..7).map(|p| schedule(p, 1, 2, 7, 0)).collect();
        assert_eq!(walk, vec![1, 3, 5, 1, 3, 5, 1]);
        let walk: Vec<usize> = (0..9).map(|p| schedule(p, 0, 2, 7, 0)).collect();
        assert_eq!(walk, vec![0, 2, 4, 6, 0, 2, 4, 6, 0]);
    }
}
