//! The 48-problem synthetic test suite mirroring Table I of the paper.
//!
//! Every entry is a *synthetic analogue* of one SuiteSparse matrix from
//! the paper's test set: same problem class (FEM shell, stiffness,
//! waveguide, circuit, thermal, 3D mesh graph, …), inherent block
//! structure where the original has one, deterministic seed, and a size
//! scaled down (~10–100×) to CPU-experiment budgets. Names carry the
//! original's name for cross-referencing with Table I.

use super::circuit::{chem_banded, circuit, nd_graph, thermal};
use super::fem::{
    fem_block_matrix, fem_variable_block_matrix, mixed_dofs, stiffness_block_matrix, MeshGraph,
};
use super::laplace::{anisotropic_2d, laplace_2d, laplace_3d};
use super::laplace::{convection_diffusion_2d, waveguide};
use crate::csr::CsrMatrix;

/// Problem class of a suite entry (mirrors the application areas in
/// Table I).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProblemClass {
    /// Shell / structural FEM with multi-dof supervariables.
    StructuralShell,
    /// Stiffness matrices (SPD, 3 dofs per node).
    Stiffness,
    /// Dielectric waveguide (`dw*`) / spectral problems.
    Waveguide,
    /// Circuit simulation (power-law rows).
    Circuit,
    /// Thermal / diffusion / ecology grids.
    Thermal,
    /// 3D mesh graphs (`nd*`).
    MeshGraph,
    /// Electromagnetics (CurlCurl-like irregular FEM).
    Electromagnetics,
    /// Computational fluid dynamics / convection.
    Cfd,
    /// Pressure-Poisson (2D Laplacian).
    Poisson2d,
    /// 3D thermal Laplacian.
    Poisson3d,
    /// Chemical kinetics / reservoir banded problems (`olm*`, `saylr*`).
    ChemKinetics,
    /// Strongly anisotropic diffusion grids.
    Anisotropic,
}

/// One entry of the synthetic Table-I suite.
#[derive(Clone, Debug)]
pub struct SuiteProblem {
    /// Identifier `<original-name>` (see Table I of the paper).
    pub name: &'static str,
    /// Sequential ID (the "ID" column of Table I, 1-based).
    pub id: usize,
    /// Problem class driving the generator choice.
    pub class: ProblemClass,
    /// Generator seed.
    pub seed: u64,
    /// Size knob (meaning depends on the class).
    pub scale: usize,
    /// Dofs per node for FEM-like classes (supervariable size).
    pub dof: usize,
}

impl SuiteProblem {
    /// Build the matrix for this entry.
    pub fn build(&self) -> CsrMatrix<f64> {
        let s = self.scale;
        match self.class {
            ProblemClass::StructuralShell => {
                let mesh = MeshGraph::shell2d(s, s);
                fem_block_matrix(&mesh, self.dof, 0.35, 0.05, self.seed)
            }
            ProblemClass::Stiffness => {
                let mesh = MeshGraph::grid2d(s, s);
                stiffness_block_matrix(&mesh, self.dof, 0.4, self.seed)
            }
            ProblemClass::Waveguide => waveguide(s, 4, self.seed),
            ProblemClass::Circuit => circuit(s, 2 + (self.seed % 3) as usize, self.seed),
            ProblemClass::Thermal => thermal(s, s, self.seed),
            ProblemClass::MeshGraph => nd_graph(s, s, s, self.seed),
            ProblemClass::Electromagnetics => {
                let mesh = MeshGraph::grid3d(s, s, s);
                let dofs = mixed_dofs(mesh.nodes, &[2, 3, 4], self.seed);
                fem_variable_block_matrix(&mesh, &dofs, 0.3, self.seed)
            }
            ProblemClass::Cfd => convection_diffusion_2d(s, s, 0.8),
            ProblemClass::Poisson2d => laplace_2d(s, s),
            ProblemClass::Poisson3d => laplace_3d(s, s, s),
            ProblemClass::ChemKinetics => chem_banded(s, 8 + (self.seed % 8) as usize, self.seed),
            ProblemClass::Anisotropic => anisotropic_2d(s, s, 0.02),
        }
    }
}

/// The full 48-problem suite, ordered by Table I's "ID" column.
pub fn table1_suite() -> Vec<SuiteProblem> {
    use ProblemClass::*;
    let spec: [(&'static str, ProblemClass, usize, usize); 48] = [
        // (name, class, scale, dof)
        ("ABACUS_shell_ud", StructuralShell, 28, 6),
        ("af_shell3", StructuralShell, 38, 6),
        ("bcsstk17", Stiffness, 34, 3),
        ("bcsstk18", Stiffness, 30, 3),
        ("bcsstk38", Stiffness, 24, 3),
        ("bmw3_2", StructuralShell, 34, 6),
        ("cbuckle", StructuralShell, 28, 4),
        ("Chebyshev2", Waveguide, 1200, 1),
        ("Chebyshev3", Waveguide, 2400, 1),
        ("ckt11752_dc_1", Circuit, 9000, 1),
        ("crankseg_1", Stiffness, 26, 6),
        ("CurlCurl_0", Electromagnetics, 12, 3),
        ("dc3", Circuit, 12000, 1),
        ("dw1024", Waveguide, 1024, 1),
        ("dw2048", Waveguide, 2048, 1),
        ("dw4096", Waveguide, 4096, 1),
        ("dw8192", Waveguide, 8192, 1),
        ("ecology2", Anisotropic, 90, 1),
        ("F2", Stiffness, 30, 4),
        ("FEM_3D_thermal1", Poisson3d, 18, 1),
        ("G2_circuit", Circuit, 15000, 1),
        ("G3_circuit", Circuit, 20000, 1),
        ("gas_sensor", Thermal, 70, 1),
        ("gridgena", Anisotropic, 64, 1),
        ("HOOK_1498", StructuralShell, 34, 5),
        ("ibm_matrix_2", Circuit, 8000, 1),
        ("inv-extrusion-1", Cfd, 60, 1),
        ("Kuu", Stiffness, 26, 3),
        ("matrix_9", Circuit, 7000, 1),
        ("matrix-new_3", Circuit, 6000, 1),
        ("ML_Geer", StructuralShell, 40, 6),
        ("Muu", Stiffness, 26, 3),
        ("nasa2910", Stiffness, 22, 4),
        ("nd3k", MeshGraph, 13, 1),
        ("nd6k", MeshGraph, 16, 1),
        ("nd12k", MeshGraph, 20, 1),
        ("nd24k", MeshGraph, 25, 1),
        ("olm5000", ChemKinetics, 5000, 1),
        ("Pres_Poisson", Poisson2d, 70, 1),
        ("rail_79841", StructuralShell, 36, 4),
        ("rajat31", Circuit, 18000, 1),
        ("s1rmq4m1", StructuralShell, 26, 5),
        ("s2rmq4m1", StructuralShell, 27, 5),
        ("s3rmq4m1", StructuralShell, 28, 5),
        ("s3rmt3m3", StructuralShell, 25, 5),
        ("saylr4", ChemKinetics, 3600, 1),
        ("ship_003", StructuralShell, 36, 6),
        ("sme3Db", Cfd, 75, 1),
    ];
    spec.iter()
        .enumerate()
        .map(|(i, &(name, class, scale, dof))| SuiteProblem {
            name,
            id: i + 1,
            class,
            seed: 1000 + i as u64,
            scale,
            dof,
        })
        .collect()
}

/// Look one suite problem up by name.
pub fn by_name(name: &str) -> Option<SuiteProblem> {
    table1_suite().into_iter().find(|p| p.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocking::supervariable_blocking;
    use crate::extract::block_coverage;

    #[test]
    fn suite_has_48_unique_entries() {
        let s = table1_suite();
        assert_eq!(s.len(), 48);
        let mut names: Vec<&str> = s.iter().map(|p| p.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 48);
        for (i, p) in s.iter().enumerate() {
            assert_eq!(p.id, i + 1);
        }
    }

    #[test]
    fn every_problem_builds_square_nonempty() {
        for p in table1_suite() {
            let a = p.build();
            assert_eq!(a.nrows(), a.ncols(), "{}", p.name);
            assert!(a.nrows() >= 500, "{} too small: {}", p.name, a.nrows());
            assert!(a.nrows() <= 45_000, "{} too large: {}", p.name, a.nrows());
            assert!(a.nnz() > a.nrows(), "{}", p.name);
            // nonzero diagonal everywhere (block-Jacobi needs it)
            assert!(
                a.diagonal().iter().all(|&d| d != 0.0),
                "{} has a zero diagonal entry",
                p.name
            );
        }
    }

    #[test]
    fn builds_are_deterministic() {
        let p = by_name("bcsstk17").unwrap();
        assert_eq!(p.build(), p.build());
    }

    #[test]
    fn block_structured_problems_have_good_coverage() {
        for name in ["ABACUS_shell_ud", "bcsstk17", "ship_003"] {
            let p = by_name(name).unwrap();
            let a = p.build();
            let part = supervariable_blocking(&a, 32);
            let cov = block_coverage(&a, &part);
            assert!(
                cov > 0.25,
                "{name}: diagonal blocks capture only {cov:.2} of nnz"
            );
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(by_name("dw1024").is_some());
        assert!(by_name("not-a-matrix").is_none());
        assert_eq!(by_name("dw1024").unwrap().scale, 1024);
    }
}
