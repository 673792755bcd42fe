// DeltaBlue — the classic one-way incremental constraint solver (Sannella's planner), as in
// the V8 suite: a chain of equality constraints and a projection battery of scale constraints
// are planned, perturbed and replanned. Exercises virtual dispatch + object graphs.
#include "src/apps/v8bench/kernels.h"

#include <vector>

#include "src/platform/debug.h"

namespace ebbrt {
namespace v8bench {
namespace {

enum Strength {
  kRequired = 0,
  kStrongPreferred = 1,
  kPreferred = 2,
  kStrongDefault = 3,
  kNormal = 4,
  kWeakDefault = 5,
  kWeakest = 6,
};

inline bool Stronger(int a, int b) { return a < b; }

class Constraint;

struct Variable {
  int value = 0;
  Constraint* determined_by = nullptr;
  int walk_strength = kWeakest;
  std::uint64_t mark = 0;
  bool stay = true;
  // Arena-friendly fixed fan-out (no heap-owning members: the arena never runs destructors).
  Constraint* constraints[4] = {};
  int num_constraints = 0;
  void AddConstraintRef(Constraint* c) {
    Kbugon(num_constraints >= 4, "DeltaBlue: variable fan-out exceeded");
    constraints[num_constraints++] = c;
  }
};

class Planner;

class Constraint {
 public:
  explicit Constraint(int strength) : strength_(strength) {}
  virtual ~Constraint() = default;

  virtual void AddToGraph() = 0;
  virtual void RemoveFromGraph() = 0;
  virtual bool IsSatisfied() const = 0;
  virtual void ChooseMethod(std::uint64_t mark) = 0;
  virtual Variable* Output() const = 0;
  virtual void MarkInputs(std::uint64_t mark) = 0;
  virtual bool InputsKnown(std::uint64_t mark) const = 0;
  virtual void Execute() = 0;
  virtual void Recalculate() = 0;
  virtual void MarkUnsatisfied() = 0;

  int strength() const { return strength_; }

  void AddConstraint(Planner& planner);
  Constraint* Satisfy(std::uint64_t mark, Planner& planner);

 protected:
  int strength_;
};

class Planner {
 public:
  std::uint64_t next_mark_ = 0;
  std::uint64_t NewMark() { return ++next_mark_; }

  void IncrementalAdd(Constraint* c) {
    std::uint64_t mark = NewMark();
    for (Constraint* overridden = c->Satisfy(mark, *this); overridden != nullptr;
         overridden = overridden->Satisfy(mark, *this)) {
    }
  }

  // Extracts a plan (ordered constraint executions) from the sources.
  std::vector<Constraint*> ExtractPlan(const std::vector<Constraint*>& sources) {
    std::vector<Constraint*> plan;
    std::vector<Constraint*> todo = sources;
    std::uint64_t mark = NewMark();
    while (!todo.empty()) {
      Constraint* c = todo.back();
      todo.pop_back();
      Variable* out = c->Output();
      if (out->mark != mark && c->InputsKnown(mark)) {
        plan.push_back(c);
        out->mark = mark;
        // Propagate to downstream constraints of `out`.
        for (int i = 0; i < out->num_constraints; ++i) {
          Constraint* next = out->constraints[i];
          if (next != c && next->IsSatisfied()) {
            todo.push_back(next);
          }
        }
      }
    }
    return plan;
  }

  std::vector<Constraint*> MakePlan(std::vector<Constraint*> sources) {
    return ExtractPlan(sources);
  }
};

void Constraint::AddConstraint(Planner& planner) {
  AddToGraph();
  planner.IncrementalAdd(this);
}

Constraint* Constraint::Satisfy(std::uint64_t mark, Planner& /*planner*/) {
  ChooseMethod(mark);
  if (!IsSatisfied()) {
    Kbugon(strength_ == kRequired, "DeltaBlue: required constraint unsatisfiable");
    return nullptr;
  }
  MarkInputs(mark);
  Variable* out = Output();
  Constraint* overridden = out->determined_by;
  if (overridden != nullptr) {
    overridden->MarkUnsatisfied();
  }
  out->determined_by = this;
  out->mark = mark;
  Recalculate();
  return overridden;
}

// --- Unary constraints -------------------------------------------------------------------

class UnaryConstraint : public Constraint {
 public:
  UnaryConstraint(Variable* v, int strength) : Constraint(strength), var_(v) {}

  void AddToGraph() override { var_->AddConstraintRef(this); }
  void RemoveFromGraph() override { satisfied_ = false; }
  void ChooseMethod(std::uint64_t mark) override {
    satisfied_ = var_->mark != mark && Stronger(strength_, var_->walk_strength);
  }
  bool IsSatisfied() const override { return satisfied_; }
  Variable* Output() const override { return var_; }
  void MarkInputs(std::uint64_t) override {}
  bool InputsKnown(std::uint64_t) const override { return true; }
  void Recalculate() override {
    var_->walk_strength = strength_;
    var_->stay = !IsInput();
    if (var_->stay) {
      Execute();
    }
  }
  void MarkUnsatisfied() override { satisfied_ = false; }
  virtual bool IsInput() const { return false; }

 protected:
  Variable* var_;
  bool satisfied_ = false;
};

class StayConstraint : public UnaryConstraint {
 public:
  using UnaryConstraint::UnaryConstraint;
  void Execute() override {}
};

class EditConstraint : public UnaryConstraint {
 public:
  using UnaryConstraint::UnaryConstraint;
  void Execute() override {}
  bool IsInput() const override { return true; }
};

// --- Binary constraints ------------------------------------------------------------------

class BinaryConstraint : public Constraint {
 public:
  BinaryConstraint(Variable* a, Variable* b, int strength)
      : Constraint(strength), v1_(a), v2_(b) {}

  void AddToGraph() override {
    v1_->AddConstraintRef(this);
    v2_->AddConstraintRef(this);
  }
  void RemoveFromGraph() override { direction_ = 0; }
  void ChooseMethod(std::uint64_t mark) override {
    if (v1_->mark == mark) {
      direction_ = (v2_->mark != mark && Stronger(strength_, v2_->walk_strength)) ? 2 : 0;
    } else if (v2_->mark == mark) {
      direction_ = (v1_->mark != mark && Stronger(strength_, v1_->walk_strength)) ? 1 : 0;
    } else if (Stronger(v1_->walk_strength, v2_->walk_strength)) {
      direction_ = Stronger(strength_, v2_->walk_strength) ? 2 : 0;
    } else {
      direction_ = Stronger(strength_, v1_->walk_strength) ? 1 : 0;
    }
  }
  bool IsSatisfied() const override { return direction_ != 0; }
  Variable* Output() const override { return direction_ == 2 ? v2_ : v1_; }
  Variable* Input() const { return direction_ == 2 ? v1_ : v2_; }
  void MarkInputs(std::uint64_t mark) override { Input()->mark = mark; }
  bool InputsKnown(std::uint64_t mark) const override {
    Variable* in = Input();
    return in->mark == mark || in->stay || in->determined_by == nullptr;
  }
  void Recalculate() override {
    Variable* in = Input();
    Variable* out = Output();
    out->walk_strength = Stronger(strength_, in->walk_strength) ? in->walk_strength
                                                                : strength_;
    out->stay = in->stay;
    if (out->stay) {
      Execute();
    }
  }
  void MarkUnsatisfied() override { direction_ = 0; }

 protected:
  Variable* v1_;
  Variable* v2_;
  int direction_ = 0;  // 0 none, 1 -> v1, 2 -> v2
};

class EqualityConstraint : public BinaryConstraint {
 public:
  using BinaryConstraint::BinaryConstraint;
  void Execute() override { Output()->value = Input()->value; }
};

class ScaleConstraint : public BinaryConstraint {
 public:
  ScaleConstraint(Variable* src, Variable* scale, Variable* offset, Variable* dst,
                  int strength)
      : BinaryConstraint(src, dst, strength), scale_(scale), offset_(offset) {}
  void Execute() override {
    if (direction_ == 2) {
      v2_->value = v1_->value * scale_->value + offset_->value;
    } else {
      v1_->value = (v2_->value - offset_->value) / scale_->value;
    }
  }

 private:
  Variable* scale_;
  Variable* offset_;
};

std::uint64_t RunPlan(const std::vector<Constraint*>& plan) {
  std::uint64_t sum = 0;
  for (Constraint* c : plan) {
    c->Execute();
    sum += static_cast<std::uint64_t>(c->Output()->value & 0xff);
  }
  return sum;
}

// Chain test: a chain of equality constraints with an edit at the head.
std::uint64_t ChainTest(Env& env, int n) {
  Planner planner;
  std::vector<Variable*> vars;
  for (int i = 0; i <= n; ++i) {
    vars.push_back(env.New<Variable>());
  }
  for (int i = 0; i < n; ++i) {
    env.New<EqualityConstraint>(vars[i], vars[i + 1], kRequired)->AddConstraint(planner);
  }
  env.New<StayConstraint>(vars[n], kStrongDefault)->AddConstraint(planner);
  auto* edit = env.New<EditConstraint>(vars[0], kPreferred);
  edit->AddConstraint(planner);
  std::vector<Constraint*> sources{edit};
  auto plan = planner.MakePlan(sources);
  std::uint64_t checksum = 0;
  for (int v = 0; v < 40; ++v) {
    vars[0]->value = v;
    checksum += RunPlan(plan);
    checksum += static_cast<std::uint64_t>(vars[n]->value);
  }
  return checksum;
}

// Projection test: src -(scale)-> dst battery; edit src, replan, edit dst, replan.
std::uint64_t ProjectionTest(Env& env, int n) {
  Planner planner;
  auto* scale = env.New<Variable>();
  scale->value = 10;
  auto* offset = env.New<Variable>();
  offset->value = 1000;
  std::vector<Variable*> dests;
  Variable* src = nullptr;
  Variable* dst = nullptr;
  for (int i = 0; i < n; ++i) {
    src = env.New<Variable>();
    src->value = i;
    dst = env.New<Variable>();
    dst->value = i;
    dests.push_back(dst);
    env.New<StayConstraint>(src, kNormal)->AddConstraint(planner);
    env.New<ScaleConstraint>(src, scale, offset, dst, kRequired)->AddConstraint(planner);
  }
  auto* edit = env.New<EditConstraint>(src, kPreferred);
  edit->AddConstraint(planner);
  std::vector<Constraint*> sources{edit};
  auto plan = planner.MakePlan(sources);
  std::uint64_t checksum = 0;
  for (int v = 0; v < 30; ++v) {
    src->value = v;
    checksum += RunPlan(plan);
    checksum += static_cast<std::uint64_t>(dst->value);
  }
  return checksum;
}

}  // namespace

std::uint64_t RunDeltaBlue(Env& env) {
  std::uint64_t checksum = 0;
  for (int round = 0; round < 30; ++round) {
    env.Reset();
    checksum += ChainTest(env, 1000);
    checksum += ProjectionTest(env, 1000);
  }
  return checksum;
}

}  // namespace v8bench
}  // namespace ebbrt
