#include "engine/figures/figure.h"

#include <optional>
#include <ostream>
#include <utility>
#include <vector>

#include "core/error.h"
#include "core/integer.h"

namespace wild5g::engine::figures {

int FigureRun::param(std::string_view name) const {
  const json::Value* value = params.find(name);
  require(value != nullptr,
          "FigureRun: param '" + std::string(name) + "' is not declared");
  return integer_from_json(*value, name, 1, 1'000'000'000);
}

void FigureRun::banner(const std::string& id, const std::string& title) const {
  out << "\n################################################################\n"
      << "# " << id << ": " << title << "\n"
      << "################################################################\n";
}

void FigureRun::paper(const std::string& text) const {
  out << "[paper] " << text << "\n";
}

void FigureRun::repro(const std::string& text) const {
  out << "[repro] " << text << "\n";
}

void FigureRun::report(const Table& table) const {
  table.print(out);
  doc.record(table);
}

namespace {

class FigureCampaign final : public Campaign {
 public:
  FigureCampaign(const CampaignRequest& request, FigureBody body,
                 std::size_t steps, std::initializer_list<FigureParam> params,
                 FaultCheck check)
      : body_(body),
        steps_(steps),
        seed_(request.seed),
        params_(json::Value::object()) {
    std::vector<std::string_view> names;
    for (const FigureParam& param : params) {
      const std::string name(param.name);
      params_.set(name, param_positive_int(request.params, name,
                                           param.default_value));
      names.push_back(param.name);
    }
    reject_unknown_params(request.params, names);
    if (request.fault_plan.has_value()) {
      if (check != nullptr) check(*request.fault_plan, request.campaign);
      injector_.emplace(*request.fault_plan, request.seed);
    }
  }

  [[nodiscard]] std::size_t total_steps() const override { return steps_; }

  [[nodiscard]] json::Value execute_step(std::size_t index,
                                         CampaignContext& ctx) override {
    std::ostream sink(nullptr);  // a null buffer discards every write
    FigureRun run{index,
                  steps_,
                  seed_,
                  params_,
                  injector_.has_value() ? &*injector_ : nullptr,
                  ctx.doc,
                  ctx.console != nullptr ? *ctx.console : sink};
    body_(run);
    return std::move(run.frame);
  }

 private:
  FigureBody body_;
  std::size_t steps_;
  std::uint64_t seed_;
  json::Value params_;
  std::optional<faults::Injector> injector_;
};

}  // namespace

std::unique_ptr<Campaign> make_figure(const CampaignRequest& request,
                                      FigureBody body, std::size_t steps,
                                      std::initializer_list<FigureParam> params,
                                      FaultCheck check) {
  return std::make_unique<FigureCampaign>(request, body, steps, params, check);
}

}  // namespace wild5g::engine::figures
