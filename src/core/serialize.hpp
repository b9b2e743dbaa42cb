// Template persistence (the paper's workflow stores templates generated on
// the training device and ships them to the monitor).
//
// A plain-text, versioned, whitespace-delimited format keeps the archive
// auditable and diff-able; numbers round-trip exactly via hex-float
// rendering.  Serialization covers the QDA-based disassembler stack -- the
// paper's best classifier and the repository default.  SVM/kNN models store
// training data wholesale and are intentionally not persisted; retrain them
// from the profiling corpus instead.
#pragma once

#include <iosfwd>

#include "core/fusion.hpp"
#include "core/hierarchical.hpp"
#include "features/pipeline.hpp"
#include "ml/discriminant.hpp"

namespace sidis::core {

// -- primitive codecs (exposed for tests) -----------------------------------
void write_matrix(std::ostream& os, const linalg::Matrix& m);
linalg::Matrix read_matrix(std::istream& is);
void write_vector(std::ostream& os, const linalg::Vector& v);
linalg::Vector read_vector(std::istream& is);

/// Serializes a fitted feature pipeline (selected points, scalers, PCA).
void save_pipeline(std::ostream& os, const features::FeaturePipeline& pipeline);
features::FeaturePipeline load_pipeline(std::istream& is);

/// Serializes a fitted QDA model (per-class Gaussians + priors).
void save_qda(std::ostream& os, const ml::Qda& qda);
ml::Qda load_qda(std::istream& is);

/// Serializes a trained hierarchical disassembler whose levels all use QDA.
/// Throws std::invalid_argument when a level holds a different classifier.
void save_disassembler(std::ostream& os, const HierarchicalDisassembler& model);
/// Loads a single-channel archive.  Throws std::runtime_error when the
/// archive holds a fused model (use load_fused_disassembler).  The loaders
/// read the current format version only and throw std::runtime_error on any
/// other version, a truncated archive, a field they cannot parse, or parts
/// the rebuilt model refuses (inconsistent shapes, an unusable CWT config).
HierarchicalDisassembler load_disassembler(std::istream& is);

/// Serializes a fused power+EM model: the per-level fusion selections,
/// both channel models (each with its own pipelines and gates), and the
/// joint feature heads when trained.  Same QDA-only restriction as
/// save_disassembler.
void save_fused_disassembler(std::ostream& os, const FusedDisassembler& model);
/// Loads any archive as a fused model: fused archives restore the full
/// fusion state; plain archives load as a power-only fusion -- score mode,
/// weights (1, 0), no EM channel -- so a fused serving tier consumes
/// single-channel templates unchanged.
FusedDisassembler load_fused_disassembler(std::istream& is);

}  // namespace sidis::core
