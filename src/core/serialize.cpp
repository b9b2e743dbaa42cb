#include "core/serialize.hpp"

#include <algorithm>
#include <cstdint>
#include <iomanip>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace sidis::core {

namespace {

constexpr const char* kMagic = "sidis-template";
// v5: a "kind plain|fused" tag follows the header.  Each level record
// carries its reject-gate thresholds; a plain model ends with its pooled
// training moments (the drift-monitor reference) and the reject operating
// point calibrate_reject ran at.  Fused archives carry the per-level fusion
// selections, both channel models, and the joint feature heads, and
// load_fused_disassembler wraps a plain archive as power-only fusion.
// Older versions are refused.
constexpr int kVersion = 5;
constexpr int kOldestSupported = 5;

[[noreturn]] void corrupt(const std::string& what) {
  throw std::runtime_error("template archive corrupt: " + what);
}

/// Runs `rebuild`, a step that assembles loaded parts through their own
/// validating constructors, and reports a part they refuse
/// (std::invalid_argument) as the archive fault it is.
template <class Rebuild>
auto rebuilt(Rebuild&& rebuild) -> decltype(rebuild()) {
  try {
    return rebuild();
  } catch (const std::invalid_argument& e) {
    corrupt(e.what());
  }
}

void expect_tag(std::istream& is, const std::string& tag) {
  std::string got;
  if (!(is >> got) || got != tag) corrupt("expected '" + tag + "', got '" + got + "'");
}

void write_double(std::ostream& os, double v) {
  // Hex floats round-trip exactly and stay human-greppable.
  os << std::hexfloat << v << std::defaultfloat;
}

double read_double(std::istream& is) {
  std::string tok;
  if (!(is >> tok)) corrupt("truncated number");
  // std::hexfloat extraction is unreliable across standard libraries; strtod
  // handles the 0x1.abcp+n form everywhere.  It must consume the whole token.
  char* end = nullptr;
  const double v = std::strtod(tok.c_str(), &end);
  if (end != tok.c_str() + tok.size()) corrupt("bad number '" + tok + "'");
  return v;
}

std::size_t read_size(std::istream& is) {
  long long v = 0;
  if (!(is >> v) || v < 0) corrupt("bad size field");
  return static_cast<std::size_t>(v);
}

/// Reads `count` numbers.  The buffer grows as they arrive, so a declared
/// count the archive cannot back fails as truncated instead of allocating
/// it up front.
std::vector<double> read_doubles(std::istream& is, std::size_t count) {
  std::vector<double> out;
  for (std::size_t i = 0; i < count; ++i) out.push_back(read_double(is));
  return out;
}

}  // namespace

void write_vector(std::ostream& os, const linalg::Vector& v) {
  os << "vec " << v.size();
  for (double x : v) {
    os << ' ';
    write_double(os, x);
  }
  os << '\n';
}

linalg::Vector read_vector(std::istream& is) {
  expect_tag(is, "vec");
  return read_doubles(is, read_size(is));
}

void write_matrix(std::ostream& os, const linalg::Matrix& m) {
  os << "mat " << m.rows() << ' ' << m.cols();
  for (double x : m.data()) {
    os << ' ';
    write_double(os, x);
  }
  os << '\n';
}

linalg::Matrix read_matrix(std::istream& is) {
  expect_tag(is, "mat");
  const std::size_t rows = read_size(is);
  const std::size_t cols = read_size(is);
  if (cols != 0 && rows > SIZE_MAX / cols) corrupt("matrix size overflows");
  const std::vector<double> values = read_doubles(is, rows * cols);
  linalg::Matrix m(rows, cols);
  std::copy(values.begin(), values.end(), m.data().begin());
  return m;
}

namespace {

void write_pipeline_config(std::ostream& os, const features::PipelineConfig& c) {
  os << "pipeline_config " << static_cast<int>(c.cwt.family) << ' ' << c.cwt.num_scales
     << ' ';
  write_double(os, c.cwt.min_scale);
  os << ' ';
  write_double(os, c.cwt.max_scale);
  os << ' ' << (c.cwt.log_spacing ? 1 : 0) << ' ';
  write_double(os, c.cwt.kernel_radius);
  os << ' ';
  write_double(os, c.kl_threshold);
  os << ' ' << c.points_per_pair << ' ' << (c.adaptive_threshold ? 1 : 0) << ' '
     << (c.per_trace_normalization ? 1 : 0) << ' ' << (c.column_standardization ? 1 : 0)
     << ' ' << c.pca_components << ' ' << (c.allow_fallback_points ? 1 : 0) << '\n';
}

features::PipelineConfig read_pipeline_config(std::istream& is) {
  expect_tag(is, "pipeline_config");
  features::PipelineConfig c;
  int family = 0;
  is >> family;
  c.cwt.family = static_cast<dsp::WaveletFamily>(family);
  c.cwt.num_scales = read_size(is);
  c.cwt.min_scale = read_double(is);
  c.cwt.max_scale = read_double(is);
  c.cwt.log_spacing = read_size(is) != 0;
  c.cwt.kernel_radius = read_double(is);
  c.kl_threshold = read_double(is);
  c.points_per_pair = read_size(is);
  c.adaptive_threshold = read_size(is) != 0;
  c.per_trace_normalization = read_size(is) != 0;
  c.column_standardization = read_size(is) != 0;
  c.pca_components = read_size(is);
  c.allow_fallback_points = read_size(is) != 0;
  return c;
}

}  // namespace

void save_pipeline(std::ostream& os, const features::FeaturePipeline& pipeline) {
  os << "pipeline\n";
  write_pipeline_config(os, pipeline.config());
  os << "grid " << pipeline.grid_size() << '\n';
  os << "points " << pipeline.unified_points().size() << '\n';
  for (const stats::GridPoint& p : pipeline.unified_points()) {
    os << p.j << ' ' << p.k << ' ';
    write_double(os, p.value);
    os << '\n';
  }
  // The scaler is stored even when column standardization is off (it is then
  // empty and unused).
  os << "scaler\n";
  write_vector(os, pipeline.scaler().mean());
  write_vector(os, pipeline.scaler().stddev());
  os << "pca\n";
  write_vector(os, pipeline.pca().mean());
  write_vector(os, pipeline.pca().eigenvalues());
  write_matrix(os, pipeline.pca().components());
  write_double(os, pipeline.pca().total_variance());
  os << '\n';
}

features::FeaturePipeline load_pipeline(std::istream& is) {
  expect_tag(is, "pipeline");
  const features::PipelineConfig cfg = read_pipeline_config(is);
  expect_tag(is, "grid");
  const std::size_t grid = read_size(is);
  expect_tag(is, "points");
  const std::size_t count = read_size(is);
  std::vector<stats::GridPoint> points;
  for (std::size_t i = 0; i < count; ++i) {
    stats::GridPoint& p = points.emplace_back();
    p.j = read_size(is);
    p.k = read_size(is);
    p.value = read_double(is);
  }
  expect_tag(is, "scaler");
  linalg::Vector sm = read_vector(is);
  linalg::Vector ss = read_vector(is);
  expect_tag(is, "pca");
  linalg::Vector mean = read_vector(is);
  linalg::Vector eig = read_vector(is);
  linalg::Matrix comp = read_matrix(is);
  const double total = read_double(is);

  return rebuilt([&] {
    stats::ColumnScaler scaler;
    if (!sm.empty()) scaler = stats::ColumnScaler::from_parts(std::move(sm), std::move(ss));
    return features::FeaturePipeline::from_parts(
        cfg, std::move(points), std::move(scaler),
        stats::Pca::from_parts(std::move(mean), std::move(eig), std::move(comp), total),
        grid);
  });
}

void save_qda(std::ostream& os, const ml::Qda& qda) {
  os << "qda " << qda.labels().size() << '\n';
  for (std::size_t c = 0; c < qda.labels().size(); ++c) {
    os << "class " << qda.labels()[c] << ' ';
    write_double(os, qda.log_priors()[c]);
    os << '\n';
    write_vector(os, qda.models()[c].mean());
    write_matrix(os, qda.models()[c].covariance());
  }
}

ml::Qda load_qda(std::istream& is) {
  expect_tag(is, "qda");
  const std::size_t n = read_size(is);
  std::vector<int> labels;
  std::vector<stats::MultivariateGaussian> models;
  std::vector<double> priors;
  for (std::size_t c = 0; c < n; ++c) {
    expect_tag(is, "class");
    if (!(is >> labels.emplace_back())) corrupt("bad class label");
    priors.push_back(read_double(is));
    linalg::Vector mean = read_vector(is);
    linalg::Matrix cov = read_matrix(is);
    models.push_back(rebuilt([&] {
      return stats::MultivariateGaussian::from_moments(std::move(mean), std::move(cov), 0.0);
    }));
  }
  return rebuilt([&] {
    return ml::Qda::from_parts(std::move(labels), std::move(models), std::move(priors));
  });
}

namespace {

/// Reads the archive header; returns the kind, "plain" or "fused".
std::string read_header(std::istream& is) {
  expect_tag(is, kMagic);
  const std::size_t version = read_size(is);
  if (version < static_cast<std::size_t>(kOldestSupported) ||
      version > static_cast<std::size_t>(kVersion)) {
    corrupt("unsupported version");
  }
  expect_tag(is, "kind");
  std::string kind;
  if (!(is >> kind) || (kind != "plain" && kind != "fused")) {
    corrupt("unknown archive kind");
  }
  return kind;
}

}  // namespace

void save_disassembler(std::ostream& os, const HierarchicalDisassembler& model) {
  os << kMagic << ' ' << kVersion << '\n';
  os << "kind plain\n";
  model.save(os);
}

HierarchicalDisassembler load_disassembler(std::istream& is) {
  if (read_header(is) == "fused") {
    corrupt("archive holds a fused model; use load_fused_disassembler");
  }
  return HierarchicalDisassembler::load(is);
}

void save_fused_disassembler(std::ostream& os, const FusedDisassembler& model) {
  if (model.power_model() == nullptr) {
    throw std::invalid_argument("save_fused_disassembler: empty model");
  }
  os << kMagic << ' ' << kVersion << '\n';
  os << "kind fused\n";
  const auto write_fusion = [&os](const char* tag, const LevelFusion& f) {
    os << "fusion " << tag << ' ' << static_cast<int>(f.mode) << ' ';
    write_double(os, f.power_weight);
    os << ' ';
    write_double(os, f.em_weight);
    os << '\n';
  };
  write_fusion("group", model.group_fusion());
  write_fusion("instruction", model.instruction_fusion());
  os << "channel power\n";
  model.power_model()->save(os);
  os << "has_em " << (model.em_model() != nullptr ? 1 : 0) << '\n';
  if (model.em_model() != nullptr) {
    os << "channel em\n";
    model.em_model()->save(os);
  }
  os << "group_head " << (model.group_head_ != nullptr ? 1 : 0) << '\n';
  if (model.group_head_ != nullptr) save_qda(os, *model.group_head_);
  os << "instruction_heads " << model.instruction_heads_.size() << '\n';
  for (const auto& [group, head] : model.instruction_heads_) {
    os << "head_group " << group << '\n';
    save_qda(os, *head);
  }
}

FusedDisassembler load_fused_disassembler(std::istream& is) {
  if (read_header(is) == "plain") {
    // Single-channel archive: power-only fusion.
    auto power = std::make_shared<const HierarchicalDisassembler>(
        HierarchicalDisassembler::load(is));
    return FusedDisassembler(std::move(power), nullptr);
  }
  const auto read_fusion = [&is](const char* tag) {
    expect_tag(is, "fusion");
    expect_tag(is, tag);
    LevelFusion f;
    const std::size_t mode = read_size(is);
    if (mode > static_cast<std::size_t>(FusionMode::kFeature)) {
      corrupt("unknown fusion mode");
    }
    f.mode = static_cast<FusionMode>(mode);
    f.power_weight = read_double(is);
    f.em_weight = read_double(is);
    return f;
  };
  const LevelFusion group = read_fusion("group");
  const LevelFusion instruction = read_fusion("instruction");
  expect_tag(is, "channel");
  expect_tag(is, "power");
  auto power = std::make_shared<const HierarchicalDisassembler>(
      HierarchicalDisassembler::load(is));
  expect_tag(is, "has_em");
  std::shared_ptr<const HierarchicalDisassembler> em;
  if (read_size(is) != 0) {
    expect_tag(is, "channel");
    expect_tag(is, "em");
    em = std::make_shared<const HierarchicalDisassembler>(
        HierarchicalDisassembler::load(is));
  }
  FusedDisassembler fused = rebuilt([&] {
    return FusedDisassembler(std::move(power), std::move(em), group, instruction);
  });
  expect_tag(is, "group_head");
  if (read_size(is) != 0) {
    fused.group_head_ = std::make_unique<ml::Qda>(load_qda(is));
  }
  expect_tag(is, "instruction_heads");
  const std::size_t n = read_size(is);
  for (std::size_t i = 0; i < n; ++i) {
    expect_tag(is, "head_group");
    int group_id = 0;
    if (!(is >> group_id)) corrupt("bad head group id");
    fused.instruction_heads_[group_id] = std::make_unique<ml::Qda>(load_qda(is));
  }
  return fused;
}

// -- hierarchical model ------------------------------------------------------

void HierarchicalDisassembler::save(std::ostream& os) const {
  const auto save_level = [&os](const Level& level) {
    os << "level " << (level.trivial ? 1 : 0) << ' ' << level.only_label << ' '
       << level.components << '\n';
    os << "gate " << (level.gate.active ? 1 : 0) << ' ';
    write_double(os, level.gate.margin_floor);
    os << ' ';
    write_double(os, level.gate.score_floor);
    os << '\n';
    if (level.trivial) return;
    const auto* qda = dynamic_cast<const ml::Qda*>(level.classifier.get());
    if (qda == nullptr) {
      throw std::invalid_argument(
          "HierarchicalDisassembler::save: only QDA levels are persistable");
    }
    save_pipeline(os, level.pipeline);
    save_qda(os, *qda);
  };

  os << "group_level\n";
  save_level(group_level_);
  os << "instruction_levels " << instruction_levels_.size() << '\n';
  for (const auto& [group, level] : instruction_levels_) {
    os << "group " << group << '\n';
    save_level(level);
  }
  os << "rd_level " << (rd_level_ ? 1 : 0) << '\n';
  if (rd_level_) save_level(*rd_level_);
  os << "rr_level " << (rr_level_ ? 1 : 0) << '\n';
  if (rr_level_) save_level(*rr_level_);
  // Trailer: training moments (empty vectors when the model has none, so
  // clone-through-serializer round-trips preserve "no moments" faithfully).
  os << "training_moments " << training_moments_.count << '\n';
  write_vector(os, training_moments_.mean);
  write_vector(os, training_moments_.variance);
  // Then the reject operating point the gates were calibrated at.
  os << "reject_point " << static_cast<int>(reject_point_) << '\n';
}

HierarchicalDisassembler HierarchicalDisassembler::load(std::istream& is) {
  const auto load_level = [&is]() {
    Level level;
    expect_tag(is, "level");
    const bool trivial = read_size(is) != 0;
    if (!(is >> level.only_label)) corrupt("bad level label");
    level.components = read_size(is);
    level.trivial = trivial;
    expect_tag(is, "gate");
    level.gate.active = read_size(is) != 0;
    level.gate.margin_floor = read_double(is);
    level.gate.score_floor = read_double(is);
    if (!trivial) {
      level.pipeline = load_pipeline(is);
      level.classifier = std::make_unique<ml::Qda>(load_qda(is));
    }
    return level;
  };

  HierarchicalDisassembler d;
  expect_tag(is, "group_level");
  d.group_level_ = load_level();
  expect_tag(is, "instruction_levels");
  const std::size_t n = read_size(is);
  for (std::size_t i = 0; i < n; ++i) {
    expect_tag(is, "group");
    int group = 0;
    if (!(is >> group)) corrupt("bad group id");
    d.instruction_levels_[group] = load_level();
  }
  expect_tag(is, "rd_level");
  if (read_size(is) != 0) d.rd_level_ = std::make_unique<Level>(load_level());
  expect_tag(is, "rr_level");
  if (read_size(is) != 0) d.rr_level_ = std::make_unique<Level>(load_level());
  expect_tag(is, "training_moments");
  d.training_moments_.count = static_cast<std::uint64_t>(read_size(is));
  d.training_moments_.mean = read_vector(is);
  d.training_moments_.variance = read_vector(is);
  if (d.training_moments_.mean.size() != d.training_moments_.variance.size()) {
    corrupt("training-moments size mismatch");
  }
  expect_tag(is, "reject_point");
  const std::size_t point = read_size(is);
  if (point > static_cast<std::size_t>(RejectOperatingPoint::kCustom)) {
    corrupt("unknown reject operating point");
  }
  d.reject_point_ = static_cast<RejectOperatingPoint>(point);
  // Archives carry QDA levels, whose label lists recover the posterior
  // support exactly; no format change needed for classify_scored.
  rebuilt([&] {
    d.finalize_posterior_support();
    d.build_plan();
  });
  return d;
}

}  // namespace sidis::core
