#include "knowledge/knowledge_store.h"

namespace cookiepicker::knowledge {

namespace {

constexpr char kKnowledgeFingerprint[] = "knowledge-v1";

}  // namespace

KnowledgeStore::KnowledgeStore(std::string directory)
    : directory_(std::move(directory)),
      store_(store::StoreConfig{.directory = directory_}) {}

store::HostStore* KnowledgeStore::writableShard(const std::string& host) {
  store::HostStore* shard = store_.openHost(host);
  std::lock_guard lock(mutex_);
  if (sessionStarted_.insert(host).second) {
    shard->resumeSession(kKnowledgeFingerprint);
  }
  return shard;
}

void KnowledgeStore::attach(KnowledgeBase& base) {
  sitesLoaded_ = 0;
  // Discover existing shards the way fsck does; a directory that does not
  // exist yet is simply an empty store.
  std::error_code ec;
  for (const store::ShardFiles& files :
       store::StateStore::listShards(directory_, ec)) {
    if (!files.durable) continue;
    const store::HostStore* shard = store_.openHost(files.host);
    for (const auto& [lineHost, line] : shard->recovered().knowledgeLines) {
      std::string parsedHost;
      const std::optional<SiteKnowledge> entry =
          SiteKnowledge::parseLine(line, &parsedHost);
      if (!entry.has_value() || parsedHost.empty()) continue;
      base.mergeSite(parsedHost, *entry);
      ++sitesLoaded_;
    }
  }
  // Arm persistence only after the replay joins above, so loading does not
  // re-append what disk already holds.
  base.setPersistHook(
      [this](const std::string& host, const SiteKnowledge& entry) {
        writableShard(host)->append(store::RecordType::KnowledgeSite,
                                    entry.serializeLine(host));
      });
}

}  // namespace cookiepicker::knowledge
