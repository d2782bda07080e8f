# ctest driver for the observability stack around the serving daemon
# (see top-level CMakeLists.txt): per-view resource attribution, the
# sampling wall profiler, and lock-contention histograms, all exercised
# against a live example_itg_serve under example_itg_loadgen overload.
#
# Three concurrent processes (one execute_process):
#   1. example_itg_serve with ITG_PROFILE set (profiler on from process
#      start, folded flush at exit) and a deliberately tiny ingest queue
#      (--queue-depth 2) so producers and the maintenance thread collide
#      on the queue mutex;
#   2. example_itg_loadgen driving a single sweep step with four
#      producer connections at 200 batches/s: enough load that the
#      producers and the maintenance thread collide on the queue mutex
#      several times per run (two connections at 100 batches/s could
#      record no collision at all), and below the daemon's capacity so
#      the step still reaches 90% of the offered rate and finds a knee;
#   3. a scraper that polls the telemetry portfile, then captures
#      GET /profilez?seconds=4 mid-sweep through profile_summary.py
#      --require serve. — the folded stacks must name the serve pipeline
#      spans (this also exercises the piggyback path: ITG_PROFILE
#      already owns the profiler, so /profilez must render without
#      stopping it).
#
# Afterwards:
#   - the daemon's exit-flushed ITG_PROFILE file must validate too;
#   - the daemon's schema-v8 run report must carry nonzero
#     resources["view.*"].cpu_nanos rows and a nonzero
#     contention.serve.ingest_queue.wait_us histogram;
#   - both run reports must pass full trace_summary.py validation (which
#     cross-checks the v8 resources section against the raw counters).
#
# Inputs: -DITG_SERVE=<binary> -DITG_LOADGEN=<binary>
#         -DPython3_EXECUTABLE=<python3>
#         -DPROFILE_SUMMARY=<profile_summary.py>
#         -DTRACE_SUMMARY=<trace_summary.py>
#         -DWORK_DIR=<scratch>

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

set(ENV{ITG_TELEMETRY_PORTFILE} ${WORK_DIR}/telemetry.port)
set(ENV{ITG_THREADS} 1)

# The scraper retries so a slow registration one-shot (no serve.* spans
# live yet) cannot flake the capture; the sweep step is long enough that
# the first or second window lands inside it.
set(scrape "\
for i in $(seq 1 300); do \
  [ -s ${WORK_DIR}/telemetry.port ] && break; sleep 0.1; \
done; \
port=$(cat ${WORK_DIR}/telemetry.port) || exit 2; \
sleep 2; \
ok=1; \
for attempt in 1 2 3; do \
  if ${Python3_EXECUTABLE} ${PROFILE_SUMMARY} \
      --fetch \"http://127.0.0.1:$port/profilez?seconds=4\" \
      --require serve. >> ${WORK_DIR}/profilez.txt 2>&1; then \
    ok=0; break; \
  fi; \
  sleep 2; \
done; \
exit $ok")

execute_process(
  COMMAND sh -c "ITG_PROFILE=${WORK_DIR}/serve_profile.folded \
          exec ${ITG_SERVE} --graph rmat:12 --port 0 \
          --portfile ${WORK_DIR}/serve.port \
          --telemetry-port 0 --no-verify --queue-depth 2 \
          --scratch ${WORK_DIR}/scratch \
          --metrics-json ${WORK_DIR}/serve_report.json \
          > ${WORK_DIR}/serve.log 2>&1"
  COMMAND sh -c "exec ${ITG_LOADGEN} --portfile ${WORK_DIR}/serve.port \
          --graph rmat:12 --program wcc \
          --connections 4 --subscribers 1 --ops-per-batch 4 \
          --sweep --min-rate 200 --max-rate 200 --steps 1 --step-ms 6000 \
          --slo-ms 60000 --seed 13 \
          --metrics-json ${WORK_DIR}/load_report.json \
          --shutdown > ${WORK_DIR}/loadgen.log 2>&1"
  COMMAND sh -c "${scrape}"
  RESULTS_VARIABLE rcs
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
file(READ ${WORK_DIR}/profilez.txt profilez_out)
message(STATUS "mid-sweep /profilez capture:\n${profilez_out}")
foreach(rc ${rcs})
  if(NOT rc EQUAL 0)
    file(READ ${WORK_DIR}/serve.log serve_log)
    file(READ ${WORK_DIR}/loadgen.log loadgen_log)
    message(FATAL_ERROR "serve/loadgen/scraper rcs: ${rcs}\n"
            "serve:\n${serve_log}\nloadgen:\n${loadgen_log}\n${err}")
  endif()
endforeach()

# The atexit flush (ITG_PROFILE) must produce a parseable profile that
# also caught the serve pipeline on-CPU.
execute_process(
  COMMAND ${Python3_EXECUTABLE} ${PROFILE_SUMMARY}
          ${WORK_DIR}/serve_profile.folded --require serve.
  RESULT_VARIABLE flush_rc
  OUTPUT_VARIABLE flush_out
  ERROR_VARIABLE flush_err)
message(STATUS "exit-flushed profile:\n${flush_out}")
if(NOT flush_rc EQUAL 0)
  message(FATAL_ERROR
          "profile_summary.py on the ITG_PROFILE flush failed "
          "(${flush_rc}):\n${flush_err}")
endif()

# Attribution + contention assertions on the daemon's v8 report: every
# registered view must have been billed CPU, and the tiny ingest queue
# must have produced measurable lock contention.
execute_process(
  COMMAND ${Python3_EXECUTABLE} -c
"import json, sys
doc = json.load(open(sys.argv[1]))
assert doc['schema_version'] >= 8, doc['schema_version']
views = {k: v for k, v in doc['resources'].items() if k.startswith('view.')}
assert views, 'no view.* rows in the resources section'
assert all(v['cpu_nanos'] > 0 for v in views.values()), views
h = doc['metrics']['histograms'].get('contention.serve.ingest_queue.wait_us')
assert h is not None and h['count'] >= 1, h
for k, v in sorted(views.items()):
    print(f'  {k}: cpu={v[\"cpu_nanos\"]}ns pages={v[\"pages_read\"]} '
          f'alloc={v[\"bytes_alloc\"]}B')
print(f'  ingest-queue contention: {h[\"count\"]} waits, {h[\"sum\"]}us')
" ${WORK_DIR}/serve_report.json
  RESULT_VARIABLE attr_rc
  OUTPUT_VARIABLE attr_out
  ERROR_VARIABLE attr_err)
message(STATUS "attribution/contention check:\n${attr_out}")
if(NOT attr_rc EQUAL 0)
  message(FATAL_ERROR
          "resource attribution / contention assertions failed "
          "(${attr_rc}):\n${attr_err}")
endif()

# Full schema validation of both reports (v8: resources section rows are
# cross-checked against the resource.<ctx>.* counters).
foreach(report load_report.json serve_report.json)
  execute_process(
    COMMAND ${Python3_EXECUTABLE} ${TRACE_SUMMARY}
            --report ${WORK_DIR}/${report}
    RESULT_VARIABLE summary_rc
    OUTPUT_VARIABLE summary_out
    ERROR_VARIABLE summary_err)
  message(STATUS "trace_summary ${report}:\n${summary_out}")
  if(NOT summary_rc EQUAL 0)
    message(FATAL_ERROR
            "trace_summary.py --report ${report} failed "
            "(${summary_rc}):\n${summary_err}")
  endif()
endforeach()
