# CLI trace smoke: record a short online run in each encoding with
# drhw_sched, then replay-verify it. Every command must exit 0.
#   cmake -DDRHW_SCHED=<drhw_sched> -DOUT_DIR=<dir> -P trace_cli_smoke.cmake
function(drhw_sched)
  execute_process(COMMAND "${DRHW_SCHED}" ${ARGN} RESULT_VARIABLE code)
  if(NOT code EQUAL 0)
    string(REPLACE ";" " " command "${ARGN}")
    message(FATAL_ERROR "drhw_sched ${command} exited with ${code}")
  endif()
endfunction()

foreach(format binary jsonl)
  set(trace "${OUT_DIR}/trace_cli_smoke.${format}")
  drhw_sched(online --approach hybrid --iterations 50 --trace "${trace}"
             --trace-format ${format})
  drhw_sched(trace verify "${trace}")
endforeach()
