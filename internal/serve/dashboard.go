package serve

import "net/http"

// handleDashboard serves the live verdict dashboard: a self-contained
// HTML+JS page that consumes this server's API on the same origin — GET
// /v1/tenants for the tenant list, then a long-poll loop on each tenant's
// verdict subscription endpoint (GET /v1/tenants/{t}/verdicts?since=N&wait=1)
// and its stats endpoint. All state lives in the API; the page holds none.
func handleDashboard(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = w.Write([]byte(dashboardHTML))
}

const dashboardHTML = `<!DOCTYPE html>
<html><head><title>causalfl — live verdicts</title>
<style>
body { font-family: monospace; margin: 1.5em; }
table { border-collapse: collapse; margin: 0.5em 0 1.5em; }
td, th { border: 1px solid #999; padding: 3px 8px; text-align: left; }
.confirmed { background: #fdd; font-weight: bold; }
.muted { color: #777; }
</style></head><body>
<h1>causalfl — live verdict dashboard</h1>
<p id="status" class="muted">connecting…</p>
<div id="tenants"></div>
<script>
"use strict";
const status = document.getElementById("status");
const root = document.getElementById("tenants");
const watched = new Set();

function section(name) {
  const div = document.createElement("div");
  div.innerHTML = '<h2>tenant ' + name + '</h2>' +
    '<p class="muted" id="stats-' + name + '"></p>' +
    '<table><thead><tr><th>seq</th><th>at</th><th>confirmed</th>' +
    '<th>candidates</th></tr></thead>' +
    '<tbody id="rows-' + name + '"></tbody></table>';
  root.appendChild(div);
}

function row(name, sv) {
  const v = sv.verdict;
  const tr = document.createElement("tr");
  if ((v.confirmed || []).length > 0) tr.className = "confirmed";
  tr.innerHTML = "<td>" + sv.seq + "</td><td>" + v.at + "</td><td>" +
    (v.confirmed || []).join(", ") + "</td><td>" +
    (v.candidates || []).join(", ") + "</td>";
  const body = document.getElementById("rows-" + name);
  body.insertBefore(tr, body.firstChild);
  while (body.rows.length > 50) body.deleteRow(-1);
}

async function pollStats(name) {
  for (;;) {
    try {
      const r = await fetch("/v1/tenants/" + name + "/stats");
      if (r.ok) {
        const st = await r.json();
        document.getElementById("stats-" + name).textContent =
          "processed " + st.processed + " batches, shed " + st.shed +
          ", queue " + st.queue_len + "/" + st.queue_cap +
          ", out-of-order " + st.pipeline.aggregator.out_of_order +
          ", dead " + st.pipeline.aggregator.dead;
      }
    } catch (e) { /* transient; the verdict poll reports outages */ }
    await new Promise(res => setTimeout(res, 2000));
  }
}

async function pollVerdicts(name) {
  let since = 0;
  for (;;) {
    try {
      const r = await fetch("/v1/tenants/" + name +
        "/verdicts?since=" + since + "&wait=1");
      if (!r.ok) { await new Promise(res => setTimeout(res, 2000)); continue; }
      const out = await r.json();
      for (const sv of out.verdicts || []) row(name, sv);
      since = out.next;
    } catch (e) {
      await new Promise(res => setTimeout(res, 2000));
    }
  }
}

async function discover() {
  for (;;) {
    try {
      const r = await fetch("/v1/tenants");
      if (!r.ok) throw new Error(r.status);
      const out = await r.json();
      status.textContent = (out.tenants || []).length + " tenant(s)";
      for (const name of out.tenants || []) {
        if (watched.has(name)) continue;
        watched.add(name);
        section(name);
        pollVerdicts(name);
        pollStats(name);
      }
    } catch (e) {
      status.textContent =
        "streaming API unreachable — is causalfl serve running here?";
    }
    await new Promise(res => setTimeout(res, 5000));
  }
}
discover();
</script>
</body></html>
`
