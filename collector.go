package webtxprofile

import "webtxprofile/internal/collector"

// CollectorServer receives transaction log lines over TCP — the ingestion
// point of the continuous-authentication deployment.
type CollectorServer = collector.Server

// CollectorClient streams transactions to a CollectorServer.
type CollectorClient = collector.Client

// CollectorBatchConfig tunes batched ingestion (batch size cap, queue
// depth); the zero value selects the defaults.
type CollectorBatchConfig = collector.BatchConfig

// ListenCollector starts a TCP log collector on addr; handler receives
// every parsed transaction (from the server's single ingest goroutine).
func ListenCollector(addr string, handler func(Transaction)) (*CollectorServer, error) {
	return collector.Listen(addr, collector.Handler(handler))
}

// ListenCollectorBatch starts a TCP log collector that delivers parsed
// transactions in batches — pair it with Monitor.FeedBatch so each shard
// lock is taken once per batch. The batch slice is reused after the
// handler returns.
func ListenCollectorBatch(addr string, handler func([]Transaction), cfg CollectorBatchConfig) (*CollectorServer, error) {
	return collector.ListenBatch(addr, collector.BatchHandler(handler), cfg)
}

// DialCollector connects a log-producing client to a collector.
func DialCollector(addr string) (*CollectorClient, error) {
	return collector.Dial(addr)
}

// DialCollectorBinary connects a client that sends length-prefixed binary
// transaction records instead of log lines — the allocation-free sender
// for high-volume proxies (requires a binary-capable collector).
func DialCollectorBinary(addr string) (*CollectorClient, error) {
	return collector.DialBinary(addr)
}
