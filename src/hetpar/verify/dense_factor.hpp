// Reference basis representation for differential checks of the LP engine:
// the seed's explicit dense inverse (Gauss-Jordan refactorization, rank-1
// pivot updates). It shares nothing with the production sparse LU but the
// BasisFactor interface, so a BoundedSimplex or BranchAndBoundSolver made
// with `makeDenseInverseFactor` runs the same pivoting on an independent
// B^{-1}. Used by the solver tests, the fuzzer's solver-differential
// relation and bench/ablation_solver; nothing in the tool flow selects it.
#pragma once

#include <memory>

#include "hetpar/ilp/basis_factor.hpp"

namespace hetpar::verify {

std::unique_ptr<ilp::BasisFactor> makeDenseInverseFactor();

}  // namespace hetpar::verify
