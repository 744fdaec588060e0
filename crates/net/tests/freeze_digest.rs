//! Golden digests of every generator's frozen network.
//!
//! Each digest is FNV-1a over `n`, the source, every `G` and `G′ ∖ G` CSR
//! row (length, then targets) and the stable edge-id map, so any change to
//! a generator's RNG stream, to the freeze, or to the schedule's edge
//! numbering moves it. The table pins the values of the current
//! generators; a change that means to move one updates it and says why.

use dualgraph_net::generators::{
    self, ChurnParams, ErDualParams, FadingParams, GeometricDualParams, MobilityParams,
    ScaleDualParams,
};
use dualgraph_net::{Csr, DualGraph, NodeId, TopologySchedule};

struct Fnv(u64);

impl Fnv {
    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn rows(&mut self, csr: &Csr) {
        self.word(csr.len() as u64);
        for u in 0..csr.len() {
            let row = csr.row(NodeId::from_index(u));
            self.word(row.len() as u64);
            for v in row {
                self.word(u64::from(v.0));
            }
        }
    }
}

fn digest(net: &DualGraph) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.word(net.len() as u64);
    h.word(u64::from(net.source().0));
    h.rows(net.reliable_csr());
    h.rows(net.unreliable_only_csr());
    h.word(net.unreliable_edge_universe() as u64);
    match net.unreliable_edge_ids() {
        Some(ids) => {
            h.word(1);
            for &id in ids {
                h.word(u64::from(id));
            }
        }
        None => h.word(0),
    }
    h.0
}

fn geometry() -> GeometricDualParams {
    GeometricDualParams {
        n: 60,
        reliable_radius: 0.18,
        gray_radius: 0.3,
    }
}

fn schedule_digests(name: &str, s: &TopologySchedule, out: &mut Vec<(String, u64)>) {
    for (i, e) in s.epochs().iter().enumerate() {
        out.push((format!("{name}[{i}]"), digest(e.network())));
    }
}

fn all_digests() -> Vec<(String, u64)> {
    let er = generators::er_dual(
        ErDualParams {
            n: 48,
            reliable_p: 0.08,
            unreliable_p: 0.12,
        },
        41,
    );
    let mut out: Vec<(String, u64)> = vec![
        (
            "clique_bridge(9)".into(),
            digest(&generators::clique_bridge(9).network),
        ),
        (
            "layered_pairs(17)".into(),
            digest(&generators::layered_pairs(17)),
        ),
        (
            "layered_widths([1,3,2,4])".into(),
            digest(&generators::layered_widths(&[1, 3, 2, 4])),
        ),
        ("line(10,3)".into(), digest(&generators::line(10, 3))),
        ("ring(12,3)".into(), digest(&generators::ring(12, 3))),
        ("star(8)".into(), digest(&generators::star(8))),
        ("complete(6)".into(), digest(&generators::complete(6))),
        ("grid(5,4)".into(), digest(&generators::grid(5, 4))),
        (
            "binary_tree(15,3)".into(),
            digest(&generators::binary_tree(15, 3)),
        ),
        ("er_dual(48)".into(), digest(&er)),
        (
            "scale_dual(500)".into(),
            digest(&generators::scale_dual(
                ScaleDualParams {
                    n: 500,
                    chords_per_node: 1,
                    extras_per_node: 2,
                },
                42,
            )),
        ),
        (
            "geometric_dual(60)".into(),
            digest(&generators::geometric_dual(geometry(), 43)),
        ),
    ];
    let churn = generators::churn_schedule(
        &er,
        ChurnParams {
            epochs: 5,
            span: 3,
            rewire_fraction: 0.3,
        },
        44,
    );
    schedule_digests("churn", &churn, &mut out);
    let fading = generators::fading_schedule(
        FadingParams {
            geometry: geometry(),
            gray_p: 0.5,
            epochs: 4,
            span: 2,
        },
        45,
    );
    schedule_digests("fading", &fading, &mut out);
    let mobility = generators::mobility_schedule(
        MobilityParams {
            geometry: geometry(),
            step: 0.05,
            epochs: 4,
            span: 2,
        },
        46,
    );
    schedule_digests("mobility", &mobility, &mut out);
    out
}

const GOLDEN: &[(&str, u64)] = &[
    ("clique_bridge(9)", 0x3621c3c2e33f2aca),
    ("layered_pairs(17)", 0xe04069f5e3ca9cdc),
    ("layered_widths([1,3,2,4])", 0xedf9b4d7f43a7ab2),
    ("line(10,3)", 0x1a171d2e9c4f6c7d),
    ("ring(12,3)", 0x46cacf9f45243d59),
    ("star(8)", 0x107705827e480347),
    ("complete(6)", 0x43cd773b9b000662),
    ("grid(5,4)", 0x6d0112c3817fafe2),
    ("binary_tree(15,3)", 0x45d5061ad8680c82),
    ("er_dual(48)", 0xd7d6687b0318180d),
    ("scale_dual(500)", 0x1fbcfb00023f8f2f),
    ("geometric_dual(60)", 0x29644e75fc78ccd1),
    ("churn[0]", 0xc300f5f9c7e8d054),
    ("churn[1]", 0x3eff5728ea414345),
    ("churn[2]", 0x15c779927438bb80),
    ("churn[3]", 0xc4af06d51030ef6a),
    ("churn[4]", 0x6851bd849b0b6f8f),
    ("fading[0]", 0xecef7cc6db7b81d5),
    ("fading[1]", 0x729b9067c6ee5c65),
    ("fading[2]", 0x40fd1ea374c1d796),
    ("fading[3]", 0xd57f4c4229e1edea),
    ("mobility[0]", 0xc33a97baabd8c784),
    ("mobility[1]", 0x77afd6b426b69939),
    ("mobility[2]", 0x6e4062575c29cf84),
    ("mobility[3]", 0xceb5cb01adb190b9),
];

#[test]
fn frozen_networks_match_their_golden_digests() {
    let got = all_digests();
    let table: String = got
        .iter()
        .map(|(name, d)| format!("    (\"{name}\", {d:#018x}),\n"))
        .collect();
    let want: Vec<(String, u64)> = GOLDEN.iter().map(|&(n, d)| (n.to_string(), d)).collect();
    assert_eq!(got, want, "digest table now reads:\n{table}");
}
