#include "constraints/ic_registry.h"

#include <algorithm>

#include "common/str_util.h"

namespace softdb {

Status IcRegistry::Add(IcPtr constraint, const Catalog& catalog) {
  if (Find(constraint->name()) != nullptr) {
    return Status::AlreadyExists("constraint exists: " + constraint->name());
  }
  if (!constraint->informational()) {
    SOFTDB_ASSIGN_OR_RETURN(std::uint64_t violations,
                            constraint->Validate(catalog));
    if (violations > 0) {
      return Status::ConstraintViolation(
          StrFormat("cannot add %s: %llu existing rows violate it",
                    constraint->name().c_str(),
                    static_cast<unsigned long long>(violations)));
    }
  }
  if (auto* unique = dynamic_cast<UniqueConstraint*>(constraint.get())) {
    SOFTDB_RETURN_IF_ERROR(unique->Rebuild(catalog));
    // Wire any FK pointing at this table's key.
    for (const IcPtr& c : constraints_) {
      if (auto* fk = dynamic_cast<ForeignKeyConstraint*>(c.get())) {
        if (fk->parent_table() == unique->table() &&
            fk->parent_columns() == unique->columns()) {
          fk->SetParentKey(unique);
        }
      }
    }
  }
  if (auto* fk = dynamic_cast<ForeignKeyConstraint*>(constraint.get())) {
    for (const IcPtr& c : constraints_) {
      if (auto* unique = dynamic_cast<UniqueConstraint*>(c.get())) {
        if (unique->table() == fk->parent_table() &&
            unique->columns() == fk->parent_columns()) {
          fk->SetParentKey(unique);
        }
      }
    }
  }
  constraints_.push_back(std::move(constraint));
  return Status::OK();
}

Status IcRegistry::CheckInsert(const Catalog& catalog, const std::string& table,
                               const std::vector<Value>& row) {
  for (const IcPtr& c : constraints_) {
    if (c->table() != table || c->informational()) continue;
    checks_performed_.fetch_add(1, std::memory_order_relaxed);
    SOFTDB_RETURN_IF_ERROR(c->CheckRow(catalog, row));
  }
  return Status::OK();
}

void IcRegistry::AfterInsert(const std::string& table,
                             const std::vector<Value>& row) {
  for (const IcPtr& c : constraints_) {
    if (c->table() == table) c->AfterInsert(row);
  }
}

void IcRegistry::AfterDelete(const std::string& table,
                             const std::vector<Value>& row) {
  for (const IcPtr& c : constraints_) {
    if (c->table() == table) c->AfterDelete(row);
  }
}

std::vector<IntegrityConstraint*> IcRegistry::On(
    const std::string& table) const {
  std::vector<IntegrityConstraint*> out;
  for (const IcPtr& c : constraints_) {
    if (c->table() == table) out.push_back(c.get());
  }
  return out;
}

std::vector<ForeignKeyConstraint*> IcRegistry::ForeignKeysFrom(
    const std::string& table) const {
  std::vector<ForeignKeyConstraint*> out;
  for (const IcPtr& c : constraints_) {
    if (c->table() != table) continue;
    if (auto* fk = dynamic_cast<ForeignKeyConstraint*>(c.get())) {
      out.push_back(fk);
    }
  }
  return out;
}

const UniqueConstraint* IcRegistry::KeyOf(const std::string& table) const {
  const UniqueConstraint* fallback = nullptr;
  for (const IcPtr& c : constraints_) {
    if (c->table() != table) continue;
    if (auto* unique = dynamic_cast<const UniqueConstraint*>(c.get())) {
      if (unique->is_primary()) return unique;
      if (fallback == nullptr) fallback = unique;
    }
  }
  return fallback;
}

bool IcRegistry::IsUniqueOver(const std::string& table,
                              const std::vector<ColumnIdx>& columns) const {
  for (const IcPtr& c : constraints_) {
    if (c->table() != table) continue;
    if (auto* unique = dynamic_cast<const UniqueConstraint*>(c.get())) {
      const auto& key = unique->columns();
      const bool contained = std::all_of(
          key.begin(), key.end(), [&](ColumnIdx k) {
            return std::find(columns.begin(), columns.end(), k) !=
                   columns.end();
          });
      if (contained) return true;
    }
  }
  return false;
}

std::vector<CheckConstraint*> IcRegistry::ChecksOn(
    const std::string& table) const {
  std::vector<CheckConstraint*> out;
  for (const IcPtr& c : constraints_) {
    if (c->table() != table) continue;
    if (auto* check = dynamic_cast<CheckConstraint*>(c.get())) {
      out.push_back(check);
    }
  }
  return out;
}

IntegrityConstraint* IcRegistry::Find(const std::string& name) const {
  for (const IcPtr& c : constraints_) {
    if (c->name() == name) return c.get();
  }
  return nullptr;
}

Status IcRegistry::Drop(const std::string& name) {
  for (auto it = constraints_.begin(); it != constraints_.end(); ++it) {
    if ((*it)->name() == name) {
      constraints_.erase(it);
      return Status::OK();
    }
  }
  return Status::NotFound("no such constraint: " + name);
}

}  // namespace softdb
