//! Component layouts (Figure 1): one composition per layout, and every
//! layout rule — makespan, node constraints, rank placement, the Table I
//! rows — derived from it.

use crate::component::Component;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// The three CESM component layouts of Figure 1. Each is a name for one
/// [`Node`] composition ([`Layout::tree`]); nothing else about a layout is
/// written down per variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layout {
    /// Layout (1), the hybrid default: atmosphere and ocean run
    /// concurrently on disjoint node sets; ice and land run concurrently
    /// with each other on a subset of the atmosphere's nodes, sequentially
    /// *before* the atmosphere (a science-imposed ordering).
    ///
    /// `total = max(max(T_ice, T_lnd) + T_atm, T_ocn)`, with
    /// `n_ice + n_lnd ≤ n_atm` and `n_atm + n_ocn ≤ N`.
    Hybrid,
    /// Layout (2): ice, land and atmosphere run *sequentially* on one node
    /// group; the ocean runs concurrently on the rest.
    ///
    /// `total = max(T_ice + T_lnd + T_atm, T_ocn)`, with each of
    /// `n_ice, n_lnd, n_atm ≤ N − n_ocn`.
    SequentialWithOcean,
    /// Layout (3): everything sequential across all processors.
    ///
    /// `total = T_ice + T_lnd + T_atm + T_ocn`, with each `n_j ≤ N`.
    FullySequential,
}

/// How a layout composes its components over nested node groups.
#[derive(Debug, PartialEq, Eq)]
pub enum Node {
    /// One component on its own node count.
    Leaf(Component),
    /// Children side by side on disjoint nodes: their counts add, and the
    /// group takes as long as its slowest child.
    Par(&'static [Node]),
    /// Children one after another on the same nodes: their times add.
    /// `Seq(Some(c), rest)` is *owned* by component `c`: the group is
    /// `c`'s nodes, `rest` runs inside them first and `c` last (Table I
    /// lines 20–21: `n_ice + n_lnd ≤ n_atm`). `Seq(None, children)` is a
    /// free group as large as its largest child.
    Seq(Option<Component>, &'static [Node]),
}

use Component::{Atm, Ice, Lnd, Ocn};

static HYBRID: Node = Node::Par(&[
    Node::Leaf(Ocn),
    Node::Seq(Some(Atm), &[Node::Par(&[Node::Leaf(Ice), Node::Leaf(Lnd)])]),
]);
static SEQUENTIAL_WITH_OCEAN: Node = Node::Par(&[
    Node::Leaf(Ocn),
    Node::Seq(None, &[Node::Leaf(Ice), Node::Leaf(Lnd), Node::Leaf(Atm)]),
]);
static FULLY_SEQUENTIAL: Node = Node::Seq(
    None,
    &[
        Node::Leaf(Ice),
        Node::Leaf(Lnd),
        Node::Leaf(Atm),
        Node::Leaf(Ocn),
    ],
);

/// The paper's column order for allocations (Table III): lnd, ice, atm,
/// ocn. Node rows over a free group's members follow it.
const TABLE_ORDER: [Component; 4] = [Lnd, Ice, Atm, Ocn];

/// Names of the two Table I `T_sync` rows (lines 18–19), emitted where
/// ice and land run side by side.
pub const SYNC_ROWS: [&str; 2] = ["sync_lnd_not_too_fast", "sync_lnd_not_too_slow"];

/// One term of a min-max epigraph row.
#[derive(Debug, Clone, PartialEq)]
pub enum Span {
    /// `T_c(n_c)`.
    Time(Component),
    /// The auxiliary time variable of a side-by-side group nested in a
    /// sequence (`T_icelnd`).
    Aux(String),
    /// The makespan `T`.
    Total,
}

/// A temporal row of the min-max model: `Σ lhs ≤ rhs`.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeRow {
    pub name: String,
    pub lhs: Vec<Span>,
    pub rhs: Span,
}

/// A node row: `Σ n(parts) ≤ n(owner)`, or `≤ N` when `cap` is `None`.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeRow {
    pub name: String,
    pub parts: Vec<Component>,
    pub cap: Option<Component>,
}

impl Node {
    /// The subtree's time given each component's.
    fn time(&self, t: &ComponentTimes) -> f64 {
        match self {
            Node::Leaf(c) => t.get(*c),
            Node::Par(kids) => kids
                .iter()
                .map(|k| k.time(t))
                .reduce(f64::max)
                .unwrap_or(0.0),
            Node::Seq(owner, kids) => {
                kids.iter().map(|k| k.time(t)).sum::<f64>() + owner.map_or(0.0, |c| t.get(c))
            }
        }
    }

    /// Nodes the subtree spans under `a`: an owned group is its owner's
    /// count, a free group its largest member, a side-by-side group the
    /// sum of its children.
    pub(crate) fn extent(&self, a: &Allocation) -> i64 {
        match self {
            Node::Leaf(c) | Node::Seq(Some(c), _) => a.get(*c),
            Node::Par(kids) => kids.iter().map(|k| k.extent(a)).sum(),
            Node::Seq(None, kids) => kids.iter().map(|k| k.extent(a)).max().unwrap_or(0),
        }
    }

    /// Each component's first node under `a` (an offset from node 0),
    /// owners before the components they host. A side-by-side group puts
    /// its first child at the start of its extent and its last flush
    /// against the end; a sequence's members share its first node.
    pub(crate) fn placement(&self, a: &Allocation) -> Vec<(Component, i64)> {
        let mut out = Vec::with_capacity(4);
        self.place(a, 0, self.extent(a), &mut out);
        out
    }

    fn place(&self, a: &Allocation, start: i64, extent: i64, out: &mut Vec<(Component, i64)>) {
        match self {
            Node::Leaf(c) => out.push((*c, start)),
            Node::Seq(owner, kids) => {
                out.extend(owner.map(|c| (c, start)));
                let extent = owner.map_or(extent, |c| a.get(c));
                kids.iter().for_each(|k| k.place(a, start, extent, out));
            }
            Node::Par(kids) => {
                let mut at = start;
                for (i, k) in kids.iter().enumerate() {
                    let size = k.extent(a);
                    let last = i > 0 && i + 1 == kids.len();
                    k.place(a, if last { start + extent - size } else { at }, size, out);
                    at += size;
                }
            }
        }
    }

    /// Does some side-by-side group hold both `a` and `b` as components
    /// (so that Table I's `T_sync` window applies to them)?
    pub fn side_by_side(&self, a: Component, b: Component) -> bool {
        match self {
            Node::Leaf(_) => false,
            Node::Par(kids) if [a, b].iter().all(|&c| kids.contains(&Node::Leaf(c))) => true,
            Node::Par(kids) | Node::Seq(_, kids) => kids.iter().any(|k| k.side_by_side(a, b)),
        }
    }

    /// The fewest nodes the subtree runs on, where `smallest(c, k)` is the
    /// least count component `c` may take that is at least `k` (its floor
    /// and allowed set applied); `None` when some component has none.
    pub fn min_nodes(&self, smallest: &dyn Fn(Component, i64) -> Option<i64>) -> Option<i64> {
        let widest = |ks: &[Node]| {
            ks.iter()
                .try_fold(1, |m, k| k.min_nodes(smallest).map(|k| m.max(k)))
        };
        match self {
            Node::Leaf(c) => smallest(*c, 1),
            Node::Par(ks) => ks.iter().map(|k| k.min_nodes(smallest)).sum(),
            Node::Seq(None, ks) => widest(ks),
            Node::Seq(Some(c), ks) => smallest(*c, widest(ks)?),
        }
    }

    /// Row-name fragment: a component's label, `atm_branch` for the group
    /// the atmosphere owns, `seq` for a free group, and the concatenated
    /// children for a side-by-side group (`icelnd`).
    fn name(&self) -> String {
        match self {
            Node::Leaf(c) => c.label().to_string(),
            Node::Seq(Some(c), _) => format!("{c}_branch"),
            Node::Seq(None, _) => "seq".to_string(),
            Node::Par(kids) => kids.iter().map(Node::name).collect(),
        }
    }

    /// The additive terms of the subtree's time; a nested side-by-side
    /// group becomes an auxiliary variable, its rows pushed to `rows`.
    fn spans(&self, rows: &mut Vec<TimeRow>) -> Vec<Span> {
        match self {
            Node::Leaf(c) => vec![Span::Time(*c)],
            Node::Seq(owner, kids) => {
                let mut out: Vec<Span> = kids.iter().flat_map(|k| k.spans(rows)).collect();
                out.extend(owner.map(Span::Time));
                out
            }
            Node::Par(kids) => {
                let name = self.name();
                let aux = Span::Aux(format!("T_{name}"));
                par_time_rows(kids, &name, &aux, rows);
                vec![aux]
            }
        }
    }

    /// The component counts the subtree's size is the sum of, one list per
    /// reading: a free group is as large as any one of its members.
    fn sizes(&self) -> Vec<Vec<Component>> {
        match self {
            Node::Leaf(c) | Node::Seq(Some(c), _) => vec![vec![*c]],
            Node::Seq(None, kids) => {
                let mut out: Vec<_> = kids.iter().flat_map(Node::sizes).collect();
                out.sort_by_key(|parts| TABLE_ORDER.iter().position(|&c| c == parts[0]));
                out
            }
            Node::Par(kids) => compound_first(kids).fold(vec![vec![]], |acc, k| {
                let sizes = k.sizes();
                acc.iter()
                    .flat_map(|p| sizes.iter().map(move |q| [p.as_slice(), q].concat()))
                    .collect()
            }),
        }
    }

    /// Node rows of the subtree, whose group is capped by `cap`'s count
    /// (`None`: by N).
    fn node_rows(&self, cap: Option<Component>, rows: &mut Vec<NodeRow>) {
        if let Node::Par(kids) = self {
            let free = kids.iter().any(|k| matches!(k, Node::Seq(None, _)));
            for parts in self.sizes() {
                let name = match cap {
                    Some(owner) => format!("{}_within_{owner}", self.name()),
                    None if free => format!("{}_within_rest", parts[0]),
                    None => "budget".to_string(),
                };
                rows.push(NodeRow { name, parts, cap });
            }
        }
        if let Node::Par(kids) | Node::Seq(_, kids) = self {
            let owner = match self {
                Node::Seq(Some(c), _) => Some(*c),
                _ => cap,
            };
            kids.iter().for_each(|k| k.node_rows(owner, rows));
        }
    }
}

/// A side-by-side group's children, compound branches before single
/// components — the order Table I states them in (lines 14–17, 20, 22–26).
fn compound_first(kids: &'static [Node]) -> impl Iterator<Item = &'static Node> {
    let leaf = |k: &&Node| matches!(k, Node::Leaf(_));
    kids.iter()
        .filter(move |k| !leaf(k))
        .chain(kids.iter().filter(leaf))
}

/// `{bound}_ge_{child}` rows: the group's time bounds each child's.
fn par_time_rows(kids: &'static [Node], bound: &str, rhs: &Span, rows: &mut Vec<TimeRow>) {
    for k in compound_first(kids) {
        let lhs = k.spans(rows);
        let name = format!("{bound}_ge_{}", k.name());
        rows.push(TimeRow {
            name,
            lhs,
            rhs: rhs.clone(),
        });
    }
}

impl Layout {
    /// All layouts in Figure 1 order.
    pub const ALL: [Layout; 3] = [
        Layout::Hybrid,
        Layout::SequentialWithOcean,
        Layout::FullySequential,
    ];

    /// The paper's numbering (1-3).
    pub fn number(self) -> u8 {
        match self {
            Layout::Hybrid => 1,
            Layout::SequentialWithOcean => 2,
            Layout::FullySequential => 3,
        }
    }

    /// The layout's composition.
    pub fn tree(self) -> &'static Node {
        match self {
            Layout::Hybrid => &HYBRID,
            Layout::SequentialWithOcean => &SEQUENTIAL_WITH_OCEAN,
            Layout::FullySequential => &FULLY_SEQUENTIAL,
        }
    }

    /// Combine per-component times into the coupled run's makespan.
    pub fn total_time(self, t: &ComponentTimes) -> f64 {
        self.tree().time(t)
    }

    /// The min-max model's temporal rows (Table I lines 14–17, 22–23, 27):
    /// the makespan bounds each side-by-side branch, or the whole sequence.
    pub fn time_rows(self) -> &'static [TimeRow] {
        &self.rows().0
    }

    /// The node rows (Table I lines 20–21, 24–26): each side-by-side
    /// group's counts fit in the nodes it is given. Counts ≤ N alone are
    /// the variables' bounds and get no row.
    pub fn node_rows(self) -> &'static [NodeRow] {
        &self.rows().1
    }

    /// Both row lists, derived from the composition on first use so that
    /// model builds and allocation checks allocate none.
    fn rows(self) -> &'static (Vec<TimeRow>, Vec<NodeRow>) {
        static ROWS: [OnceLock<(Vec<TimeRow>, Vec<NodeRow>)>; 3] =
            [OnceLock::new(), OnceLock::new(), OnceLock::new()];
        ROWS[self as usize].get_or_init(|| {
            let root = self.tree();
            let mut time = Vec::new();
            match root {
                Node::Par(kids) => par_time_rows(kids, "total", &Span::Total, &mut time),
                _ => {
                    let lhs = root.spans(&mut time);
                    let name = format!("total_ge_all_{}", root.name());
                    time.push(TimeRow {
                        name,
                        lhs,
                        rhs: Span::Total,
                    });
                }
            }
            let mut node = Vec::new();
            root.node_rows(None, &mut node);
            (time, node)
        })
    }

    /// The most nodes `c` can take on `n_total` with every other count as
    /// in `a`.
    pub fn cap(self, c: Component, a: &Allocation, n_total: i64) -> i64 {
        self.node_rows()
            .iter()
            .filter(|r| r.parts.contains(&c))
            .map(|r| {
                let others: i64 = r.parts.iter().filter(|&&p| p != c).map(|&p| a.get(p)).sum();
                r.cap.map_or(n_total, |o| a.get(o)) - others
            })
            .fold(n_total, i64::min)
    }

    /// Check an allocation's node constraints for this layout on `n_total`
    /// nodes. Returns a human-readable violation, or `None` when valid.
    pub fn check(self, alloc: &Allocation, n_total: i64) -> Option<String> {
        if TABLE_ORDER.iter().any(|&c| alloc.get(c) < 1) {
            return Some("every component needs at least one node".to_string());
        }
        for row in self.node_rows() {
            let used: i64 = row.parts.iter().map(|&c| alloc.get(c)).sum();
            let cap = row.cap.map_or(n_total, |owner| alloc.get(owner));
            if used > cap {
                let labels: Vec<&str> = row.parts.iter().map(|c| c.label()).collect();
                let of = row
                    .cap
                    .map_or("total".to_string(), |owner| owner.to_string());
                return Some(format!(
                    "{} ({used}) exceed {of} nodes ({cap})",
                    labels.join("+")
                ));
            }
        }
        TABLE_ORDER
            .iter()
            .find(|&&c| alloc.get(c) > n_total)
            .map(|&c| format!("{c} ({}) exceeds total nodes ({n_total})", alloc.get(c)))
    }
}

/// Wire token for a layout.
pub fn layout_token(l: Layout) -> &'static str {
    match l {
        Layout::Hybrid => "hybrid",
        Layout::SequentialWithOcean => "seq-ocean",
        Layout::FullySequential => "sequential",
    }
}

/// Parse a layout wire token.
pub fn parse_layout(s: &str) -> Result<Layout, String> {
    Layout::ALL
        .into_iter()
        .find(|&l| layout_token(l) == s)
        .ok_or_else(|| format!("unknown layout {s:?} (hybrid|seq-ocean|sequential)"))
}

impl std::fmt::Display for Layout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "layout ({})", self.number())
    }
}

/// Node allocation to the four optimized components.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Allocation {
    pub lnd: i64,
    pub ice: i64,
    pub atm: i64,
    pub ocn: i64,
}

impl Allocation {
    /// Construct from the `[lnd, ice, atm, ocn]` order the paper's tables
    /// use.
    pub fn from_table_order(v: [i64; 4]) -> Self {
        Allocation {
            lnd: v[0],
            ice: v[1],
            atm: v[2],
            ocn: v[3],
        }
    }

    /// Nodes for one component.
    pub fn get(&self, c: Component) -> i64 {
        match c {
            Component::Lnd => self.lnd,
            Component::Ice => self.ice,
            Component::Atm => self.atm,
            Component::Ocn => self.ocn,
            _ => 0,
        }
    }

    /// Set nodes for one optimized component.
    pub fn set(&mut self, c: Component, n: i64) {
        match c {
            Component::Lnd => self.lnd = n,
            Component::Ice => self.ice = n,
            Component::Atm => self.atm = n,
            Component::Ocn => self.ocn = n,
            _ => panic!("cannot allocate nodes to non-optimized component {c}"),
        }
    }

    /// As a `(component → nodes)` map.
    pub fn as_map(&self) -> BTreeMap<Component, i64> {
        Component::OPTIMIZED
            .iter()
            .map(|&c| (c, self.get(c)))
            .collect()
    }
}

impl std::fmt::Display for Allocation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "lnd={} ice={} atm={} ocn={}",
            self.lnd, self.ice, self.atm, self.ocn
        )
    }
}

/// Wall-clock seconds per component for one coupled run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComponentTimes {
    pub lnd: f64,
    pub ice: f64,
    pub atm: f64,
    pub ocn: f64,
}

impl ComponentTimes {
    /// Time of one component.
    pub fn get(&self, c: Component) -> f64 {
        match c {
            Component::Lnd => self.lnd,
            Component::Ice => self.ice,
            Component::Atm => self.atm,
            Component::Ocn => self.ocn,
            _ => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn times() -> ComponentTimes {
        ComponentTimes {
            lnd: 60.0,
            ice: 100.0,
            atm: 300.0,
            ocn: 350.0,
        }
    }

    #[test]
    fn makespans_match_table_i_objectives() {
        let t = times();
        // Layout 1: max(max(100, 60) + 300, 350) = 400.
        assert_eq!(Layout::Hybrid.total_time(&t), 400.0);
        // Layout 2: max(100 + 60 + 300, 350) = 460.
        assert_eq!(Layout::SequentialWithOcean.total_time(&t), 460.0);
        // Layout 3: 810.
        assert_eq!(Layout::FullySequential.total_time(&t), 810.0);
    }

    #[test]
    fn hybrid_constraints() {
        let ok = Allocation {
            lnd: 24,
            ice: 80,
            atm: 104,
            ocn: 24,
        };
        assert_eq!(Layout::Hybrid.check(&ok, 128), None);
        let too_big_inner = Allocation {
            lnd: 60,
            ice: 60,
            atm: 104,
            ocn: 24,
        };
        assert!(Layout::Hybrid.check(&too_big_inner, 128).is_some());
        let over_budget = Allocation {
            lnd: 24,
            ice: 80,
            atm: 110,
            ocn: 24,
        };
        assert!(Layout::Hybrid.check(&over_budget, 128).is_some());
    }

    #[test]
    fn sequential_layouts_allow_sharing() {
        // Layout 2: atm can use all non-ocean nodes even if ice does too.
        let a = Allocation {
            lnd: 100,
            ice: 100,
            atm: 100,
            ocn: 28,
        };
        assert_eq!(Layout::SequentialWithOcean.check(&a, 128), None);
        // Layout 3: every component may span the whole machine.
        let b = Allocation {
            lnd: 128,
            ice: 128,
            atm: 128,
            ocn: 128,
        };
        assert_eq!(Layout::FullySequential.check(&b, 128), None);
        assert!(Layout::SequentialWithOcean.check(&b, 128).is_some());
    }

    #[test]
    fn zero_nodes_rejected_everywhere() {
        let a = Allocation {
            lnd: 0,
            ice: 1,
            atm: 2,
            ocn: 1,
        };
        for l in Layout::ALL {
            assert!(l.check(&a, 128).is_some());
        }
    }

    #[test]
    fn caps_and_floors_follow_the_composition() {
        let a = Allocation::from_table_order([24, 80, 104, 24]);
        // Hybrid: the atmosphere shares N with the ocean; ice shares the
        // atmosphere's nodes with land.
        assert_eq!(Layout::Hybrid.cap(Component::Atm, &a, 128), 104);
        assert_eq!(Layout::Hybrid.cap(Component::Ice, &a, 128), 80);
        assert_eq!(
            Layout::SequentialWithOcean.cap(Component::Ice, &a, 128),
            104
        );
        assert_eq!(Layout::FullySequential.cap(Component::Ocn, &a, 128), 128);
        // Fewest nodes with floors ice 4, lnd 2, atm 8, ocn 4 and an ocean
        // set whose smallest value ≥ 4 is 6.
        let smallest = |c: Component, k: i64| {
            let floor = match c {
                Component::Ice | Component::Ocn => 4,
                Component::Lnd => 2,
                _ => 8,
            };
            let k = k.max(floor);
            Some(if c == Component::Ocn { k.max(6) } else { k })
        };
        assert_eq!(Layout::Hybrid.tree().min_nodes(&smallest), Some(8 + 6));
        assert_eq!(
            Layout::SequentialWithOcean.tree().min_nodes(&smallest),
            Some(8 + 6)
        );
        assert_eq!(Layout::FullySequential.tree().min_nodes(&smallest), Some(8));
        assert!(Layout::Hybrid
            .tree()
            .side_by_side(Component::Lnd, Component::Ice));
        assert!(!Layout::SequentialWithOcean
            .tree()
            .side_by_side(Component::Ice, Component::Lnd));
    }

    #[test]
    fn wire_tokens_round_trip() {
        for l in Layout::ALL {
            assert_eq!(parse_layout(layout_token(l)), Ok(l));
        }
        assert_eq!(
            parse_layout("tree"),
            Err("unknown layout \"tree\" (hybrid|seq-ocean|sequential)".to_string())
        );
    }

    #[test]
    fn table_order_round_trip() {
        let a = Allocation::from_table_order([24, 80, 104, 24]);
        assert_eq!(a.lnd, 24);
        assert_eq!(a.ice, 80);
        assert_eq!(a.atm, 104);
        assert_eq!(a.ocn, 24);
        assert_eq!(a.get(Component::Atm), 104);
    }
}
