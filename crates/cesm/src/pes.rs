//! Translation of an allocation into CESM's processor-layout
//! configuration (`env_mach_pes.xml`).
//!
//! §V: "We implemented HSLB as a part of the automated pipeline in the
//! latest version of CESM" — the artifact that pipeline ultimately writes
//! is the case's `env_mach_pes.xml`, which assigns each component an MPI
//! task count (`NTASKS`), a thread count (`NTHRDS`) and a starting MPI
//! rank (`ROOTPE`). This module performs that translation for the Fig. 1
//! layouts on a given machine, and parses the file back (round-trip
//! tested) so archived cases can be re-ingested.

use crate::component::Component;
use crate::layout::{Allocation, Layout};
use crate::machine::Machine;

/// Per-component processor-layout entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PesEntry {
    pub component: Component,
    /// MPI tasks assigned to the component.
    pub ntasks: i64,
    /// OpenMP threads per task.
    pub nthrds: u32,
    /// First MPI rank of the component's communicator.
    pub rootpe: i64,
}

/// A complete processor layout for one case.
#[derive(Debug, Clone, PartialEq)]
pub struct PesLayout {
    pub entries: Vec<PesEntry>,
    /// Total MPI tasks the case requests.
    pub total_tasks: i64,
}

/// Errors from building or parsing a PES layout.
#[derive(Debug, Clone, PartialEq)]
pub enum PesError {
    /// The allocation violates the layout on this machine.
    InvalidAllocation(String),
    /// Malformed `env_mach_pes.xml` content.
    Parse(String),
}

impl std::fmt::Display for PesError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PesError::InvalidAllocation(why) => write!(f, "invalid allocation: {why}"),
            PesError::Parse(why) => write!(f, "cannot parse env_mach_pes.xml: {why}"),
        }
    }
}

impl std::error::Error for PesError {}

/// Build the processor layout for an allocation under a Fig. 1 layout.
///
/// Node-to-rank mapping follows the paper's Intrepid setup: one MPI task
/// per node, `threads_per_task` threads. Placement walks the layout's
/// composition ([`Layout::tree`]): side-by-side groups take disjoint
/// ranks, first child first and last child flush against the group's end;
/// components in sequence share their group's first rank. So in layout 1
/// the ocean is on `[0, n_ocn)`, the atmosphere on `[n_ocn, n_ocn +
/// n_atm)`, ice at the start and land at the end of the atmosphere's
/// ranks; layout 2 roots ice/land/atm at the shared group start after the
/// ocean; layout 3 roots everything at rank 0. The coupler shares the
/// atmosphere's ranks and the river model the land's (§II).
pub fn build(machine: &Machine, layout: Layout, alloc: &Allocation) -> Result<PesLayout, PesError> {
    if let Some(problem) = layout.check(alloc, machine.nodes) {
        return Err(PesError::InvalidAllocation(problem));
    }
    let tasks = |nodes: i64| nodes * machine.mpi_tasks_per_node as i64;
    let mut entries: Vec<PesEntry> = layout
        .tree()
        .placement(alloc)
        .into_iter()
        .map(|(component, first_node)| PesEntry {
            component,
            ntasks: tasks(alloc.get(component)),
            nthrds: machine.threads_per_task,
            rootpe: tasks(first_node),
        })
        .collect();
    for (shared, host) in [
        (Component::Cpl, Component::Atm),
        (Component::Rtm, Component::Lnd),
    ] {
        if let Some(&e) = entries.iter().find(|e| e.component == host) {
            entries.push(PesEntry {
                component: shared,
                ..e
            });
        }
    }
    Ok(PesLayout {
        entries,
        total_tasks: tasks(layout.tree().extent(alloc)),
    })
}

impl PesLayout {
    /// Render as `env_mach_pes.xml` content (the subset of the real file
    /// HSLB controls).
    pub fn to_xml(&self) -> String {
        let mut out = String::from("<?xml version=\"1.0\"?>\n<config_pes>\n");
        for e in &self.entries {
            let id = e.component.label().to_uppercase();
            out.push_str(&format!(
                "  <entry id=\"NTASKS_{id}\" value=\"{}\"/>\n  <entry id=\"NTHRDS_{id}\" value=\"{}\"/>\n  <entry id=\"ROOTPE_{id}\" value=\"{}\"/>\n",
                e.ntasks, e.nthrds, e.rootpe
            ));
        }
        out.push_str(&format!(
            "  <entry id=\"TOTALPES\" value=\"{}\"/>\n</config_pes>\n",
            self.total_tasks
        ));
        out
    }

    /// Parse the XML produced by [`PesLayout::to_xml`] back into a layout.
    pub fn from_xml(xml: &str) -> Result<PesLayout, PesError> {
        let mut fields: std::collections::BTreeMap<String, i64> = Default::default();
        for line in xml.lines() {
            let line = line.trim();
            let Some(rest) = line.strip_prefix("<entry id=\"") else {
                continue;
            };
            let Some((id, rest)) = rest.split_once("\" value=\"") else {
                return Err(PesError::Parse(format!("bad entry line: {line}")));
            };
            let Some((value, _)) = rest.split_once('"') else {
                return Err(PesError::Parse(format!("unterminated value: {line}")));
            };
            let value: i64 = value
                .parse()
                .map_err(|_| PesError::Parse(format!("non-numeric value in: {line}")))?;
            fields.insert(id.to_string(), value);
        }
        let total_tasks = *fields
            .get("TOTALPES")
            .ok_or_else(|| PesError::Parse("missing TOTALPES".to_string()))?;
        let mut entries = Vec::new();
        for c in Component::ALL {
            let id = c.label().to_uppercase();
            let (Some(&ntasks), Some(&nthrds), Some(&rootpe)) = (
                fields.get(&format!("NTASKS_{id}")),
                fields.get(&format!("NTHRDS_{id}")),
                fields.get(&format!("ROOTPE_{id}")),
            ) else {
                continue;
            };
            entries.push(PesEntry {
                component: c,
                ntasks,
                nthrds: nthrds as u32,
                rootpe,
            });
        }
        if entries.is_empty() {
            return Err(PesError::Parse("no component entries found".to_string()));
        }
        Ok(PesLayout {
            entries,
            total_tasks,
        })
    }

    /// The entry for one component, if present.
    pub fn entry(&self, c: Component) -> Option<&PesEntry> {
        self.entries.iter().find(|e| e.component == c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn intrepid_hybrid() -> PesLayout {
        build(
            &Machine::intrepid(),
            Layout::Hybrid,
            &Allocation {
                lnd: 24,
                ice: 80,
                atm: 104,
                ocn: 24,
            },
        )
        .unwrap()
    }

    #[test]
    fn hybrid_placement_matches_figure_1() {
        let pes = intrepid_hybrid();
        let ocn = pes.entry(Component::Ocn).unwrap();
        let atm = pes.entry(Component::Atm).unwrap();
        let ice = pes.entry(Component::Ice).unwrap();
        let lnd = pes.entry(Component::Lnd).unwrap();
        // Ocean first, atmosphere after it.
        assert_eq!(ocn.rootpe, 0);
        assert_eq!(atm.rootpe, 24);
        // Ice and land fit inside the atmosphere group, disjoint.
        assert_eq!(ice.rootpe, atm.rootpe);
        assert_eq!(lnd.rootpe + lnd.ntasks, atm.rootpe + atm.ntasks);
        assert!(ice.rootpe + ice.ntasks <= lnd.rootpe);
        // Coupler on the atmosphere ranks (§II).
        assert_eq!(pes.entry(Component::Cpl).unwrap().rootpe, atm.rootpe);
        // River on the land ranks (§II).
        assert_eq!(pes.entry(Component::Rtm).unwrap().rootpe, lnd.rootpe);
        assert_eq!(pes.total_tasks, 128);
    }

    #[test]
    fn xml_round_trip() {
        let pes = intrepid_hybrid();
        let xml = pes.to_xml();
        assert!(xml.contains("NTASKS_ATM"));
        assert!(xml.contains("<entry id=\"TOTALPES\" value=\"128\"/>"));
        let back = PesLayout::from_xml(&xml).unwrap();
        assert_eq!(back.total_tasks, pes.total_tasks);
        // Entry order differs (parse iterates components canonically);
        // compare per component.
        assert_eq!(back.entries.len(), pes.entries.len());
        for e in &pes.entries {
            assert_eq!(back.entry(e.component), Some(e));
        }
    }

    #[test]
    fn invalid_allocation_is_rejected() {
        let err = build(
            &Machine::intrepid(),
            Layout::Hybrid,
            &Allocation {
                lnd: 60,
                ice: 60,
                atm: 104,
                ocn: 24,
            },
        );
        assert!(matches!(err, Err(PesError::InvalidAllocation(_))));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(PesLayout::from_xml("<config_pes></config_pes>").is_err());
        assert!(PesLayout::from_xml("<entry id=\"TOTALPES\" value=\"x\"/>").is_err());
    }

    #[test]
    fn sequential_layouts_share_roots() {
        let pes = build(
            &Machine::intrepid(),
            Layout::FullySequential,
            &Allocation {
                lnd: 128,
                ice: 128,
                atm: 128,
                ocn: 128,
            },
        )
        .unwrap();
        assert!(pes.entries.iter().all(|e| e.rootpe == 0));
        assert_eq!(pes.total_tasks, 128);
    }
}
