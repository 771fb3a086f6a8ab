//! Property tests: the TCP substrate delivers application bytes in order
//! exactly once under arbitrary write patterns and loss/retransmission
//! schedules.

use proptest::prelude::*;

use dcn_tcp::{TcpConn, TcpState, RTO};
use dcn_wire::TcpSegment;

/// A lossy pump: forwards segments between `a` and `b`, dropping those
/// whose index matches the loss pattern, then drives retransmission ticks
/// until quiescent.
fn lossy_exchange(writes: &[Vec<u8>], drop_pattern: &[bool]) -> Vec<u8> {
    let mut a = TcpConn::new(40000, 179, 1);
    let mut b = TcpConn::new(179, 40000, 2);
    b.listen();
    let mut wire_ab: Vec<TcpSegment> = Vec::new();
    let mut wire_ba: Vec<TcpSegment> = Vec::new();
    let mut received = Vec::new();
    let mut now = 0u64;
    let mut drop_idx = 0;
    let mut writes_iter = writes.iter();
    wire_ab.extend(a.connect(now).segments);
    // Bounded event loop: alternate deliveries, ticks and writes.
    for _round in 0..400 {
        now += RTO / 2;
        // Feed one pending write once established.
        if a.is_established() {
            if let Some(w) = writes_iter.next() {
                wire_ab.extend(a.send(w, now).segments);
            }
        }
        // Deliver queued segments, dropping per the pattern.
        let ab: Vec<TcpSegment> = std::mem::take(&mut wire_ab);
        for seg in ab {
            let dropped = drop_pattern.get(drop_idx).copied().unwrap_or(false);
            drop_idx += 1;
            if dropped {
                continue;
            }
            let out = b.on_segment(&seg, now);
            received.extend(out.delivered);
            wire_ba.extend(out.segments);
        }
        let ba: Vec<TcpSegment> = std::mem::take(&mut wire_ba);
        for seg in ba {
            let dropped = drop_pattern.get(drop_idx).copied().unwrap_or(false);
            drop_idx += 1;
            if dropped {
                continue;
            }
            let out = a.on_segment(&seg, now);
            wire_ab.extend(out.segments);
        }
        // Retransmission.
        wire_ab.extend(a.tick(now).segments);
        wire_ba.extend(b.tick(now).segments);
        if a.is_established()
            && a.unacked() == 0
            && wire_ab.is_empty()
            && wire_ba.is_empty()
            && writes_iter.len() == 0
        {
            break;
        }
    }
    received
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn stream_is_in_order_exactly_once_despite_loss(
        writes in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..64), 1..6),
        drops in proptest::collection::vec(any::<bool>(), 0..12),
    ) {
        // Cap the loss density: with every frame dropped nothing can flow.
        let lossy: Vec<bool> = drops.iter().enumerate()
            .map(|(i, &d)| d && i % 3 != 0)
            .collect();
        let expect: Vec<u8> = writes.iter().flatten().copied().collect();
        let got = lossy_exchange(&writes, &lossy);
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn connect_is_idempotent_on_state(isn in any::<u32>()) {
        let mut c = TcpConn::new(1, 2, isn);
        let o1 = c.connect(0);
        prop_assert_eq!(o1.segments.len(), 1);
        prop_assert_eq!(c.state(), TcpState::SynSent);
        // Re-connect resets cleanly.
        let o2 = c.connect(10);
        prop_assert_eq!(o2.segments.len(), 1);
        prop_assert_eq!(c.state(), TcpState::SynSent);
    }
}
